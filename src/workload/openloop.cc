#include "workload/openloop.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::workload {

using afa::sim::EventFn;
using afa::sim::Tick;

void
OpenLoopStreamStats::add(const OpenLoopStreamStats &o)
{
    arrivals += o.arrivals;
    submitted += o.submitted;
    completed += o.completed;
    dropped += o.dropped;
    errors += o.errors;
    readBytes += o.readBytes;
    writeBytes += o.writeBytes;
    for (unsigned k = 0; k < afa::obs::kActThresholds; ++k)
        exceed[k] += o.exceed[k];
    backlogPeak = std::max(backlogPeak, o.backlogPeak);
    finalBacklog += o.finalBacklog;
    inflightAtEnd += o.inflightAtEnd;
}

double
OpenLoopResult::measuredSeconds() const
{
    return afa::sim::toSec(measuredTicks);
}

double
OpenLoopResult::offeredPerSec() const
{
    const double secs = measuredSeconds();
    return secs > 0.0
        ? static_cast<double>(totals.arrivals) / secs : 0.0;
}

double
OpenLoopResult::completedPerSec() const
{
    const double secs = measuredSeconds();
    return secs > 0.0
        ? static_cast<double>(totals.completed) / secs : 0.0;
}

void
OpenLoopResult::merge(const OpenLoopResult &other)
{
    if (other.empty())
        return;
    totals.add(other.totals);
    if (perStream.size() < other.perStream.size())
        perStream.resize(other.perStream.size());
    for (std::size_t s = 0; s < other.perStream.size(); ++s)
        perStream[s].add(other.perStream[s]);
    responseHist.merge(other.responseHist);
    measuredTicks += other.measuredTicks;
}

OpenLoopEngine::OpenLoopEngine(afa::sim::Simulator &simulator,
                               std::string engine_name,
                               afa::host::Scheduler &scheduler,
                               IoEngine &io_engine,
                               unsigned device_count,
                               const OpenLoopParams &params)
    : SimObject(simulator, std::move(engine_name)), sched(scheduler),
      engine(io_engine), devices(device_count), p(params),
      zipf(device_count, params.zipfTheta)
{
    if (p.streams == 0)
        afa::sim::fatal("%s: need at least one stream",
                        name().c_str());
    if (p.cpus.empty())
        afa::sim::fatal("%s: no CPUs configured for the streams",
                        name().c_str());
    if (p.blockSize == 0 || p.blockSize % 4096 != 0)
        afa::sim::fatal("%s: blockSize must be a multiple of 4096",
                        name().c_str());
    if (p.readFraction < 0.0 || p.readFraction > 1.0)
        afa::sim::fatal("%s: readFraction must be in [0, 1]",
                        name().c_str());

    // Each stream runs its share of the aggregate arrival rate.
    ArrivalParams per_stream = p.arrival;
    per_stream.ratePerSec =
        p.arrival.ratePerSec / static_cast<double>(p.streams);

    streams.reserve(p.streams);
    streamRng.reserve(p.streams);
    for (unsigned s = 0; s < p.streams; ++s) {
        streams.emplace_back(per_stream);
        Stream &st = streams.back();
        afa::host::TaskParams tp;
        tp.name = afa::sim::strfmt("%s.s%u", name().c_str(), s);
        tp.affinity = afa::host::CpuMask(1)
            << p.cpus[s % p.cpus.size()];
        tp.traceSpans = true;
        if (p.rtPriority > 0) {
            tp.klass = afa::host::SchedClass::RealTime;
            tp.rtPriority = p.rtPriority;
        }
        st.task = sched.createTask(tp);
        streamRng.push_back(
            rng().fork(afa::sim::strfmt("stream%u", s)));
    }

    deviceBlocks.resize(devices);
    for (unsigned d = 0; d < devices; ++d) {
        deviceBlocks[d] = engine.deviceBlocks(d);
        if (deviceBlocks[d] * 4096 < p.blockSize)
            afa::sim::fatal("%s: device %u smaller than one block",
                            name().c_str(), d);
    }
    deviceHist.resize(devices);
}

void
OpenLoopEngine::start(Tick start_at)
{
    if (started)
        afa::sim::panic("%s: started twice", name().c_str());
    started = true;
    at(std::max(start_at, now()), [this] {
        endTime = now() + p.duration;
        for (unsigned s = 0; s < p.streams; ++s)
            scheduleArrival(s);
    });
}

void
OpenLoopEngine::scheduleArrival(unsigned s)
{
    const Tick gap = streams[s].arrival.nextGap(streamRng[s]);
    after(gap, [this, s] { onArrival(s); });
}

void
OpenLoopEngine::onArrival(unsigned s)
{
    Stream &st = streams[s];
    if (now() >= endTime) {
        // Arrival clocks stop at the end of the measurement; the
        // backlog and in-flight work keep draining.
        st.clockStopped = true;
        return;
    }
    ++st.stats.arrivals;

    IoRequest req;
    req.device = static_cast<unsigned>(zipf.next(streamRng[s]));
    req.bytes = p.blockSize;
    const std::uint64_t bpi = p.blockSize / 4096;
    const std::uint64_t slots = deviceBlocks[req.device] / bpi;
    req.lba = streamRng[s].uniformInt(0, slots - 1) * bpi;
    req.op = streamRng[s].chance(p.readFraction)
        ? afa::nvme::Op::Read : afa::nvme::Op::Write;

    if (st.backlog.size() >= p.maxBacklog) {
        ++st.stats.dropped;
    } else {
        st.backlog.push_back(QueuedOp{now(), req});
        st.stats.backlogPeak = std::max<std::uint64_t>(
            st.stats.backlogPeak, st.backlog.size());
        kickSubmit(s);
    }
    scheduleArrival(s);
}

void
OpenLoopEngine::enqueueWork(unsigned s, Tick cost, EventFn then)
{
    streams[s].workQueue.push_back(WorkItem{cost, std::move(then)});
    pump(s);
}

void
OpenLoopEngine::pump(unsigned s)
{
    Stream &st = streams[s];
    if (st.taskBusy || st.workQueue.empty())
        return;
    WorkItem &item = st.workQueue.front();
    const Tick cost = item.cost;
    st.runningThen = std::move(item.then);
    st.workQueue.pop_front();
    st.taskBusy = true;
    sched.runFor(st.task, cost, [this, s] {
        streams[s].taskBusy = false;
        EventFn then = std::move(streams[s].runningThen);
        if (then)
            then();
        pump(s);
    });
}

void
OpenLoopEngine::kickSubmit(unsigned s)
{
    Stream &st = streams[s];
    if (st.submitQueued || st.backlog.empty() || now() >= endTime)
        return;
    st.submitQueued = true;
    enqueueWork(s, p.submitCost, [this, s] {
        streams[s].submitQueued = false;
        issueFront(s);
        kickSubmit(s);
    });
}

void
OpenLoopEngine::issueFront(unsigned s)
{
    Stream &st = streams[s];
    if (st.backlog.empty() || now() >= endTime)
        return;
    QueuedOp op = st.backlog.front();
    st.backlog.pop_front();

    ++st.stats.submitted;
    if (op.req.op == afa::nvme::Op::Write)
        st.stats.writeBytes += op.req.bytes;
    else
        st.stats.readBytes += op.req.bytes;

    const std::uint64_t tag =
        (static_cast<std::uint64_t>(st.task + 1) << 32) | ++st.seq;
    op.req.tag = tag;
    const std::uint32_t slot = flights.acquire();
    flights[slot] = Flight{op.arrivalTick, tag, s, op.req.device,
                           op.req.bytes, false};
    ++st.inflight;

    const unsigned cpu = sched.taskCpu(st.task);
    if (spanLog && spanLog->wants(afa::obs::Category::Workload))
        spanLog->record(afa::obs::Stage::SubmitQueue, tag,
                        op.arrivalTick, now(),
                        afa::obs::cpuTrack(cpu));
    engine.submit(cpu, op.req, [this, slot](const IoResult &result) {
        onDeviceComplete(slot, result);
    });
}

void
OpenLoopEngine::onDeviceComplete(std::uint32_t slot,
                                 const IoResult &result)
{
    Flight &flight = flights[slot];
    if (flight.tag == 0)
        afa::sim::panic("%s: completion for a free flight slot",
                        name().c_str());
    flight.failed = !result.ok();
    const unsigned s = flight.stream;
    // Completion handled on a remote CPU needs an IPI to wake us.
    Tick ipi = 0;
    if (result.cpu != sched.taskCpu(streams[s].task))
        ipi = sched.config().irq.ipiCost;
    after(ipi, [this, s, slot] {
        enqueueWork(s, p.reapCost, [this, slot] { finishOp(slot); });
    });
}

void
OpenLoopEngine::finishOp(std::uint32_t slot)
{
    const Flight flight = flights[slot];
    if (flight.tag == 0)
        afa::sim::panic("%s: reap of a free flight slot", name().c_str());
    flights[slot].tag = 0; // tags are never 0: (task + 1) << 32 | seq
    flights.release(slot);
    const std::uint64_t tag = flight.tag;
    Stream &st = streams[flight.stream];

    const Tick latency = now() - flight.arrivalTick;
    ++st.stats.completed;
    if (flight.failed) {
        // Failed IOs (driver gave up) keep their retry budget out of
        // the response statistics, like the closed-loop workers.
        ++st.stats.errors;
    } else {
        hist.record(latency);
        deviceHist[flight.device].record(latency);
        for (unsigned k = 0; k < afa::obs::kActThresholds; ++k)
            if (latency > afa::obs::actThresholdTicks(k))
                ++st.stats.exceed[k];
    }
    if (spanLog && spanLog->wants(afa::obs::Category::Workload))
        spanLog->record(afa::obs::Stage::Complete, tag,
                        flight.arrivalTick, now(),
                        afa::obs::ssdTrack(flight.device), 0,
                        flight.bytes);
    if (st.inflight == 0)
        afa::sim::panic("%s: inflight underflow", name().c_str());
    --st.inflight;
}

bool
OpenLoopEngine::finished() const
{
    if (!started)
        return false;
    for (const Stream &st : streams) {
        if (!st.clockStopped || st.taskBusy || st.inflight > 0 ||
            !st.workQueue.empty())
            return false;
    }
    return true;
}

std::vector<OpenLoopStreamStats>
OpenLoopEngine::streamStats() const
{
    std::vector<OpenLoopStreamStats> out;
    out.reserve(streams.size());
    for (const Stream &st : streams) {
        OpenLoopStreamStats snap = st.stats;
        snap.finalBacklog = st.backlog.size();
        snap.inflightAtEnd = st.inflight;
        out.push_back(snap);
    }
    return out;
}

OpenLoopStreamStats
OpenLoopEngine::totals() const
{
    OpenLoopStreamStats sum;
    for (const OpenLoopStreamStats &s : streamStats())
        sum.add(s);
    return sum;
}

OpenLoopResult
OpenLoopEngine::result() const
{
    OpenLoopResult r;
    r.perStream = streamStats();
    for (const OpenLoopStreamStats &s : r.perStream)
        r.totals.add(s);
    r.responseHist = hist;
    r.measuredTicks = p.duration;
    return r;
}

void
OpenLoopEngine::registerTelemetry(afa::obs::Telemetry &telemetry)
{
    // Counter/gauge sources read engine state that lives on shard 0,
    // as the telemetry contract requires; the offered-vs-completed
    // window series is the arrivals/completed delta pair.
    telemetry.addCounter("openloop.arrivals", [this] {
        std::uint64_t v = 0;
        for (const Stream &st : streams)
            v += st.stats.arrivals;
        return v;
    });
    telemetry.addCounter("openloop.submitted", [this] {
        std::uint64_t v = 0;
        for (const Stream &st : streams)
            v += st.stats.submitted;
        return v;
    });
    telemetry.addCounter("openloop.completed", [this] {
        std::uint64_t v = 0;
        for (const Stream &st : streams)
            v += st.stats.completed;
        return v;
    });
    telemetry.addCounter("openloop.dropped", [this] {
        std::uint64_t v = 0;
        for (const Stream &st : streams)
            v += st.stats.dropped;
        return v;
    });
    telemetry.addGauge("openloop.backlog", [this] {
        std::size_t v = 0;
        for (const Stream &st : streams)
            v += st.backlog.size();
        return static_cast<double>(v);
    });
    telemetry.addGauge("openloop.inflight", [this] {
        std::uint64_t v = 0;
        for (const Stream &st : streams)
            v += st.inflight;
        return static_cast<double>(v);
    });
}

void
OpenLoopEngine::publishMetrics(afa::obs::MetricsRegistry &registry)
    const
{
    const OpenLoopStreamStats t = totals();
    registry.addCounter("openloop.arrivals", t.arrivals);
    registry.addCounter("openloop.submitted", t.submitted);
    registry.addCounter("openloop.completed", t.completed);
    registry.addCounter("openloop.dropped", t.dropped);
    registry.addCounter("openloop.errors", t.errors);
    registry.addCounter("openloop.final_backlog", t.finalBacklog);
    registry.addCounter("openloop.inflight_at_end", t.inflightAtEnd);
}

} // namespace afa::workload
