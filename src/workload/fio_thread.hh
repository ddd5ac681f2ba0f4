/**
 * @file
 * One FIO worker thread: a schedulable task in a closed loop of
 * submit -> wait -> reap against one device, recording completion
 * latency (fio's clat) into a histogram and optionally a raw sample
 * log.
 *
 * The latency endpoint matches fio's: from the instant the submit
 * syscall returns until the completion has been reaped in user space
 * -- so every scheduler, IRQ, c-state and fabric delay in between is
 * part of the measurement, exactly as on the paper's testbed.
 */

#ifndef AFA_WORKLOAD_FIO_THREAD_HH
#define AFA_WORKLOAD_FIO_THREAD_HH

#include <vector>

#include "host/scheduler.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"
#include "stats/histogram.hh"
#include "stats/scatter_log.hh"
#include "workload/fio_job.hh"
#include "workload/io_engine.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::workload {

/** Per-thread result counters. */
struct FioThreadStats
{
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    /** IOs that completed unsuccessfully (e.g. driver timeout on a
     *  dropped-out device). Counted in `completed` too; error
     *  latencies are excluded from the histogram/scatter. */
    std::uint64_t errors = 0;
};

/** A FIO worker bound to one device. */
class FioThread : public afa::sim::SimObject
{
  public:
    FioThread(afa::sim::Simulator &simulator, std::string thread_name,
              afa::host::Scheduler &scheduler, IoEngine &engine,
              unsigned device, const FioJob &job);

    /** Begin issuing at @p start_at; stop submitting at job.runtime
     *  past that (in-flight IOs drain). */
    void start(afa::sim::Tick start_at = 0);

    /** Completion-latency histogram (ticks). */
    const afa::stats::Histogram &histogram() const { return hist; }

    /** Attach a raw sample log (Fig. 10); nullptr detaches. */
    void attachScatterLog(afa::stats::ScatterLog *log)
    {
        scatter = log;
    }

    /** Attach the obs span log; nullptr detaches. */
    void attachSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

    const FioThreadStats &stats() const { return threadStats; }
    const FioJob &job() const { return fioJob; }
    unsigned device() const { return dev; }

    /** The scheduler task backing this thread (for tests). */
    afa::host::TaskId taskId() const { return task; }

    /** True once submission has stopped and all IOs completed. */
    bool finished() const
    {
        return stopped && inflight == 0 && !taskBusy;
    }

  private:
    afa::host::Scheduler &sched;
    IoEngine &engine;
    unsigned dev;
    FioJob fioJob;
    afa::host::TaskId task;
    afa::stats::Histogram hist;
    afa::stats::ScatterLog *scatter;
    afa::obs::SpanLog *spanLog = nullptr;
    FioThreadStats threadStats;

    afa::sim::Tick endTime;
    bool started;
    bool stopped;
    unsigned inflight;
    bool taskBusy;
    std::uint64_t seqPointer;
    std::uint64_t rangeStart;
    std::uint64_t rangeBlocks;

    /** Deferred CPU work items executed serially by the task. */
    struct WorkItem
    {
        afa::sim::Tick cost = 0;
        afa::sim::EventFn then;
    };
    afa::sim::RingQueue<WorkItem> workQueue;
    /** Continuation of the item the task is running. Parked here, not
     *  in the runFor() closure, so that closure is just [this]. */
    afa::sim::EventFn runningThen;

    /**
     * One in-flight IO. Completion callbacks capture only [this,
     * slot-index] -- small enough for std::function's inline buffer,
     * so the submit path stays allocation-free with the per-IO tag
     * and timestamps parked here instead of in the closure.
     */
    struct IoSlot
    {
        afa::sim::Tick submitTick = 0;
        std::uint64_t tag = 0;
        bool failed = false; ///< completion carried an error status
    };
    std::vector<IoSlot> slots;          ///< ioDepth entries
    std::vector<std::uint32_t> freeSlots;
    std::uint32_t ioSeq = 0;            ///< per-thread tag sequence

    void pump();
    void enqueueWork(afa::sim::Tick cost, afa::sim::EventFn then);
    void maybeSubmit();
    void issueOne(afa::sim::Tick enqueued_at);
    IoRequest nextRequest();
    void onDeviceComplete(std::uint32_t slot, const IoResult &result);
    void pollStep(std::uint32_t slot);
    void finishIo(std::uint32_t slot);

    bool pollCompleteFlag = false;
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_FIO_THREAD_HH
