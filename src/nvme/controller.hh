/**
 * @file
 * The NVMe SSD controller model.
 *
 * A command arriving from the host passes through:
 *   1. the command pipeline, a serialising server (readProcTime per
 *      command) that is also where SMART housekeeping stalls bite;
 *   2. the media stage: zero-fill fast path for unmapped (FOB) reads,
 *      NAND via the FTL for mapped data, the write pipe for writes;
 *   3. the internal DMA engine (internalMBps) moving data to the host
 *      buffer;
 *   4. the transport (PCIe fabric, injected by the host glue), after
 *      which the completion callback fires host-side.
 *
 * One controller exposes one queue pair per host logical CPU, like
 * the Linux 4.7 NVMe driver the paper used (64 SSDs x 40 CPUs =
 * 2,560 interrupt vectors system-wide).
 */

#ifndef AFA_NVME_CONTROLLER_HH
#define AFA_NVME_CONTROLLER_HH

#include <functional>

#include "nand/nand_array.hh"
#include "nvme/command.hh"
#include "nvme/firmware_config.hh"
#include "nvme/ftl.hh"
#include "nvme/smart.hh"
#include "sim/ring_queue.hh"
#include "sim/sim_object.hh"
#include "sim/slot_pool.hh"
#include "sim/trace.hh"

namespace afa::obs {
class SpanLog;
} // namespace afa::obs

namespace afa::nvme {

/** Controller activity counters. */
struct ControllerStats
{
    std::uint64_t readsCompleted = 0;
    std::uint64_t writesCompleted = 0;
    std::uint64_t flushesCompleted = 0;
    std::uint64_t formatsCompleted = 0;
    std::uint64_t logPagesCompleted = 0;
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    std::uint64_t hiccups = 0;
    Tick smartStallDelay = 0; ///< total time commands waited on SMART
    /** Commands swallowed while the device was dropped out; only the
     *  host driver's timeout path recovers them. */
    std::uint64_t droppedCommands = 0;
    /** Total extra service time injected by limp/stall faults. */
    Tick faultStallDelay = 0;
    /** Commands served by the single-event fast path. */
    std::uint64_t fastPathCommands = 0;
    /** Commands served by (or demoted to) the chained event model. */
    std::uint64_t fallbackCommands = 0;
};

/** The SSD controller. */
class Controller : public afa::sim::SimObject
{
  public:
    /** Invoked host-side when a completion has been delivered. */
    using CompletionFn = std::function<void(const NvmeCompletion &)>;

    /**
     * Device-to-host delivery; injected by the host glue, typically
     * Fabric::sendSpanned(deviceNode, hostNode, ...). @p io is the
     * command's observability tag (0 = untagged) so the transport can
     * attribute the transfer to the IO.
     */
    using TransportFn = std::function<void(
        std::uint32_t bytes, std::uint64_t io, afa::sim::EventFn)>;

    Controller(afa::sim::Simulator &simulator,
               std::string controller_name,
               const FirmwareConfig &firmware_config,
               afa::nand::NandArray &nand_array,
               const FtlParams &ftl_params,
               afa::sim::Tracer *tracer = nullptr);

    /** Install the device-to-host transport. Required before use. */
    void setTransport(TransportFn transport);

    /** Install the host completion handler. Required before use. */
    void setCompletionHandler(CompletionFn handler);

    /** Begin background activity (the SMART schedule). */
    void start();

    /**
     * A command has arrived at the device (the host glue calls this
     * after simulating the submission-side fabric transfer).
     */
    void submit(const NvmeCommand &cmd);

    /** Number of queue pairs this controller exposes. */
    unsigned queuePairs() const { return numQueuePairs; }

    /** Configure the queue pair count (host driver does at probe). */
    void setQueuePairs(unsigned count) { numQueuePairs = count; }

    /** Attach the span log; spans use @p track (this SSD's). Also
     *  wires the FTL and NAND layers underneath. */
    void setSpanLog(afa::obs::SpanLog *log, std::uint16_t track);

    // ------------------------------------------------------------------
    // Injected fault hooks (driven by fault::FaultEngine). All default
    // to the healthy state and cost nothing while there: one compare
    // on the submit path, one max in the pipeline.
    // ------------------------------------------------------------------

    /**
     * Limping device: media service time and the write pipe scale by
     * @p factor (>= 1; 1 restores health). The added time is recorded
     * as FaultStall spans and ControllerStats::faultStallDelay.
     */
    void setLimpFactor(double factor);

    /** Current limp factor (1 = healthy). */
    double limpFactor() const { return limp; }

    /** Dropped-out device: submitted commands are silently lost. */
    void setOffline(bool offline);

    /** True while the device is dropped out. */
    bool offline() const { return isOffline; }

    /** Freeze the command pipeline until @p until (firmware stall). */
    void stallUntil(Tick until);

    /**
     * Enable/disable the single-event command fast path (default
     * on). Disabling demotes any in-flight fast commands back onto
     * the chained event model at their reference ticks, so a
     * mid-run switch stays exact. Completion ticks, RNG draw order,
     * horizons, stats and span values are identical either way; only
     * the executed-event count (and span ring order) differ.
     */
    void setFastPath(bool enabled);

    /** True when the single-event command fast path is enabled. */
    bool fastPath() const { return fastPathEnabled; }

    Ftl &ftl() { return ftlLayer; }
    const Ftl &ftl() const { return ftlLayer; }
    SmartEngine &smart() { return smartEngine; }
    const FirmwareConfig &firmware() const { return fwConfig; }
    const ControllerStats &stats() const { return ctrlStats; }

  private:
    FirmwareConfig fwConfig;
    afa::nand::NandArray &nand;
    Ftl ftlLayer;
    SmartEngine smartEngine;
    afa::sim::Tracer *tracer;

    TransportFn transport;
    CompletionFn completionHandler;
    unsigned numQueuePairs;

    // Busy horizons of the serialising stages.
    Tick procBusy;
    Tick xferBusy;
    Tick writePipeBusy;
    std::uint64_t lastWriteEndLba;

    // Injected fault state (healthy defaults).
    double limp = 1.0;
    bool isOffline = false;
    Tick faultStallUntilTick = 0;

    ControllerStats ctrlStats;
    afa::obs::SpanLog *spanLog = nullptr;
    std::uint16_t spanTrack = 0;

    // ------------------------------------------------------------------
    // Single-event command fast path (DESIGN.md §9). An eligible
    // command claims every horizon and draws every latency at submit
    // time -- in the chained model's FP operation and RNG draw order
    // -- and schedules one completion event. A FlightRecord per
    // in-flight fast command makes the claim revocable: if a later
    // command must take the chained model (or a fault hook fires)
    // before the record's reference claim tick, the record is demoted
    // -- its claim rolled back LIFO and the unchanged chained tail
    // rescheduled at the tick the reference model would run it.
    // ------------------------------------------------------------------

    /** An in-flight fast-path read. */
    struct FastRead
    {
        NvmeCommand cmd;
        Tick hiccup;     ///< sampled firmware hiccup penalty
        Tick mediaBegin; ///< pipe exit (reference media start)
        Tick mediaDone;  ///< media end (FOB draw or max NAND data-out)
        /** Tick the reference model claims the DMA engine: the pipe
         *  event for FOB reads, the last NAND callback for mapped
         *  ones. Claims must happen in this order; a violation
         *  demotes the entry. At or past this tick the claim is
         *  final. */
        Tick finishTick;
        Tick xferReady;    ///< mediaDone + hiccup (healthy window)
        Tick xferDone;     ///< completion tick
        Tick prevXferBusy; ///< xferBusy before our claim (rollback)
    };

    /** An in-flight fast-path write: placement deferred to wpbTick. */
    struct FastWrite
    {
        NvmeCommand cmd;
        std::uint64_t blocks;
        Tick wpbTick; ///< write-pipe exit = placement + completion
    };

    bool fastPathEnabled = true;
    /** Chained commands dispatched but not yet complete. Any nonzero
     *  depth disables the fast path: a chained command draws from the
     *  shared streams at its own event times, so a fast command
     *  submitted behind it would reorder draws. */
    unsigned chainDepth = 0;
    /** 4 KiB slots owed to the open frontier page by fastWrites. */
    unsigned pendingFastWriteSlots = 0;
    afa::sim::RingQueue<FastRead> fastReads;   ///< finishTick-ordered
    afa::sim::RingQueue<FastWrite> fastWrites; ///< wpbTick-ordered
    /** The DMA engine and the write pipe are FIFO servers, so fast
     *  completions fire in dispatch order: one pending event per
     *  queue (the front entry's) is enough. Each completion schedules
     *  the next front; demoting a whole suffix costs at most one
     *  cancel. Valid only while the matching queue is non-empty. */
    afa::sim::EventHandle fastReadEv;
    afa::sim::EventHandle fastWriteEv;

    void serveRead(const NvmeCommand &cmd);
    void serveWrite(const NvmeCommand &cmd);
    void serveFlush(const NvmeCommand &cmd);
    void serveFormat(const NvmeCommand &cmd);
    void serveLogPage(const NvmeCommand &cmd);

    /** Pass through the command pipeline; returns its exit tick.
     *  @p io tags the queue-wait and SMART-stall spans. */
    Tick throughPipeline(Tick proc_time, std::uint64_t io = 0);

    /** Reserve the internal DMA engine from @p ready; returns end. */
    Tick throughXfer(Tick ready, afa::sim::Bytes bytes);

    /** Sample an optional firmware hiccup penalty; trace lines are
     *  stamped @p when (the reference model samples at its pipe
     *  event, the fast path at submit). */
    Tick sampleHiccup(Tick when);
    Tick sampleHiccup() { return sampleHiccup(now()); }

    // Fast-path machinery ----------------------------------------------

    /** True when a read may take the fast path; sets @p all_mapped. */
    bool fastReadEligible(const NvmeCommand &cmd, std::uint64_t blocks,
                          bool &all_mapped) const;

    /** True when a write may take the fast path. */
    bool fastWriteEligible(std::uint64_t blocks) const;

    /** Claim horizons + draw latencies at submit; one event. */
    void fastRead(const NvmeCommand &cmd, std::uint64_t blocks,
                  Tick pipe_done, bool all_mapped);

    /** Chained dispatch bookkeeping: demote in-flight fast commands
     *  and raise the chain guard. */
    void fallbackDispatch();

    /**
     * A read or write on the chained (reference) model. Parked in a
     * pool from dispatch to completion so that every event and FTL
     * callback of the chain captures only [this, slot].
     */
    struct Chained
    {
        NvmeCommand cmd;
        std::uint64_t blocks = 0;
        Tick hiccup = 0;
        Tick mediaBegin = 0;
        Tick mediaDone = 0;
        std::uint64_t remaining = 0; ///< FTL callbacks outstanding
    };
    afa::sim::SlotPool<Chained> chained;

    /** Park @p cmd for the chained model; returns its slot. */
    std::uint32_t park(const NvmeCommand &cmd, std::uint64_t blocks);

    /** The chained read's pipe-exit body (reference model). */
    void chainedReadBody(std::uint32_t slot);

    /** Shared chained-model read tail (the reference finish()): limp
     *  accounting, DMA claim, spans, completion event. Runs at the
     *  reference claim tick for chained and demoted reads alike, with
     *  the slot's hiccup and media window set. */
    void finishRead(std::uint32_t slot);

    /** The chained write-pipe exit body (reference model). */
    void chainedWriteBody(std::uint32_t slot);

    /** Fast completion events (front entry is always the one due). */
    void completeFastRead();
    void completeFastWrite();

    /** Roll the newest fast read/write back onto the chained model. */
    void demoteBackFastRead();
    void demoteBackFastWrite();

    /** Demote every revocable fast command (chained dispatch, fault
     *  hook, or setFastPath(false)). */
    void demoteAllFast();

    void complete(const NvmeCommand &cmd, std::uint32_t reply_bytes,
                  Status status);
    void checkWired() const;
};

} // namespace afa::nvme

#endif // AFA_NVME_CONTROLLER_HH
