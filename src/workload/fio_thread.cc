#include "workload/fio_thread.hh"

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::workload {

using afa::sim::EventFn;
using afa::sim::Tick;

FioThread::FioThread(afa::sim::Simulator &simulator,
                     std::string thread_name,
                     afa::host::Scheduler &scheduler, IoEngine &io_engine,
                     unsigned device, const FioJob &job)
    : SimObject(simulator, std::move(thread_name)), sched(scheduler),
      engine(io_engine), dev(device), fioJob(job), scatter(nullptr),
      endTime(0), started(false), stopped(true), inflight(0),
      taskBusy(false), seqPointer(0)
{
    afa::host::TaskParams tp;
    tp.name = name();
    tp.affinity = fioJob.cpusAllowed;
    tp.traceSpans = true;
    if (fioJob.rtPriority > 0) {
        tp.klass = afa::host::SchedClass::RealTime;
        tp.rtPriority = fioJob.rtPriority;
    }
    task = sched.createTask(tp);

    slots.resize(fioJob.ioDepth);
    freeSlots.reserve(fioJob.ioDepth);
    for (std::uint32_t s = fioJob.ioDepth; s-- > 0;)
        freeSlots.push_back(s);

    std::uint64_t capacity = engine.deviceBlocks(dev);
    rangeStart = fioJob.offsetBlocks;
    rangeBlocks = fioJob.sizeBlocks ? fioJob.sizeBlocks
                                    : capacity - rangeStart;
    if (rangeStart >= capacity || rangeStart + rangeBlocks > capacity)
        afa::sim::fatal("%s: job range [%llu, +%llu) exceeds device "
                        "capacity %llu blocks",
                        name().c_str(),
                        (unsigned long long)rangeStart,
                        (unsigned long long)rangeBlocks,
                        (unsigned long long)capacity);
    if (rangeBlocks * 4096 < fioJob.blockSize)
        afa::sim::fatal("%s: job range smaller than one block",
                        name().c_str());
    if (fioJob.polling && fioJob.ioDepth != 1)
        afa::sim::fatal("%s: polling requires iodepth=1",
                        name().c_str());
}

void
FioThread::start(Tick start_at)
{
    if (started)
        afa::sim::panic("%s: started twice", name().c_str());
    started = true;
    at(std::max(start_at, now()), [this] {
        stopped = false;
        endTime = now() + fioJob.runtime;
        maybeSubmit();
    });
}

void
FioThread::enqueueWork(Tick cost, EventFn then)
{
    workQueue.push_back(WorkItem{cost, std::move(then)});
    pump();
}

void
FioThread::pump()
{
    if (taskBusy || workQueue.empty())
        return;
    WorkItem &item = workQueue.front();
    const Tick cost = item.cost;
    runningThen = std::move(item.then);
    workQueue.pop_front();
    taskBusy = true;
    sched.runFor(task, cost, [this] {
        taskBusy = false;
        EventFn then = std::move(runningThen);
        if (then)
            then();
        pump();
    });
}

void
FioThread::maybeSubmit()
{
    if (stopped)
        return;
    if (now() >= endTime) {
        stopped = true;
        return;
    }
    while (inflight < fioJob.ioDepth) {
        ++inflight;
        enqueueWork(fioJob.submitCost,
                    [this, enq = now()] { issueOne(enq); });
    }
}

IoRequest
FioThread::nextRequest()
{
    IoRequest req;
    req.device = dev;
    req.bytes = fioJob.blockSize;
    const std::uint64_t blocks_per_io = fioJob.blockSize / 4096;
    const std::uint64_t slots = rangeBlocks / blocks_per_io;

    bool is_read = true;
    switch (fioJob.rw) {
      case RwMode::Read:
      case RwMode::Write:
        req.lba = rangeStart + seqPointer * blocks_per_io;
        seqPointer = (seqPointer + 1) % slots;
        is_read = fioJob.rw == RwMode::Read;
        break;
      case RwMode::RandRead:
      case RwMode::RandWrite:
        req.lba = rangeStart +
            rng().uniformInt(0, slots - 1) * blocks_per_io;
        is_read = fioJob.rw == RwMode::RandRead;
        break;
      case RwMode::RandRw:
        req.lba = rangeStart +
            rng().uniformInt(0, slots - 1) * blocks_per_io;
        is_read = rng().chance(fioJob.rwMixRead / 100.0);
        break;
    }
    req.op = is_read ? afa::nvme::Op::Read : afa::nvme::Op::Write;
    return req;
}

void
FioThread::issueOne(Tick enqueued_at)
{
    IoRequest req = nextRequest();
    ++threadStats.submitted;
    if (req.op == afa::nvme::Op::Write)
        threadStats.writeBytes += req.bytes;
    else
        threadStats.readBytes += req.bytes;

    std::uint32_t slot = freeSlots.back();
    freeSlots.pop_back();
    IoSlot &io = slots[slot];
    io.submitTick = now();
    // Tag: (task+1) in the high half keeps tags unique across
    // threads; the low half is this thread's sequence number.
    io.tag = (static_cast<std::uint64_t>(task + 1) << 32) | ++ioSeq;
    req.tag = io.tag;

    unsigned cpu = sched.taskCpu(task);
    if (spanLog && spanLog->wants(afa::obs::Category::Workload))
        spanLog->record(afa::obs::Stage::SubmitQueue, io.tag,
                        enqueued_at, now(), afa::obs::cpuTrack(cpu));
    io.failed = false;
    if (fioJob.polling) {
        pollCompleteFlag = false;
        engine.submit(cpu, req, [this, slot](const IoResult &result) {
            slots[slot].failed = !result.ok();
            pollCompleteFlag = true;
        });
        pollStep(slot);
        return;
    }
    engine.submit(cpu, req, [this, slot](const IoResult &result) {
        onDeviceComplete(slot, result);
    });
}

void
FioThread::pollStep(std::uint32_t slot)
{
    enqueueWork(fioJob.pollQuantum, [this, slot] {
        if (!pollCompleteFlag) {
            pollStep(slot);
            return;
        }
        finishIo(slot);
    });
}

void
FioThread::onDeviceComplete(std::uint32_t slot, const IoResult &result)
{
    slots[slot].failed = !result.ok();
    // Completion handled on a remote CPU needs an IPI to wake us.
    Tick ipi = 0;
    if (result.cpu != sched.taskCpu(task))
        ipi = sched.config().irq.ipiCost;
    after(ipi, [this, slot] {
        enqueueWork(fioJob.reapCost, [this, slot] { finishIo(slot); });
    });
}

void
FioThread::finishIo(std::uint32_t slot)
{
    IoSlot &io = slots[slot];
    Tick latency = now() - io.submitTick;
    if (io.failed) {
        // Failed IOs (driver gave up) report an error like fio does;
        // their latency is the retry budget, not a device service
        // time, so it stays out of the latency statistics.
        ++threadStats.errors;
    } else {
        hist.record(latency);
        if (scatter)
            scatter->record(now(), latency,
                            static_cast<std::uint32_t>(dev));
    }
    if (spanLog && spanLog->wants(afa::obs::Category::Workload))
        spanLog->record(afa::obs::Stage::Complete, io.tag,
                        io.submitTick, now(), afa::obs::ssdTrack(dev),
                        0, fioJob.blockSize);
    freeSlots.push_back(slot);
    ++threadStats.completed;
    if (inflight == 0)
        afa::sim::panic("%s: inflight underflow", name().c_str());
    --inflight;
    if (now() >= endTime) {
        stopped = true;
        return;
    }
    if (fioJob.thinkTime > 0)
        after(fioJob.thinkTime, [this] { maybeSubmit(); });
    else
        maybeSubmit();
}

} // namespace afa::workload
