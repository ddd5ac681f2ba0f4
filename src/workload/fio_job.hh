/**
 * @file
 * FIO-style job description and option parsing.
 *
 * The paper's workload is `rw=randread bs=4k iodepth=1 runtime=120
 * direct=1 ioengine=libaio` with cpus_allowed pinning; we accept the
 * same option vocabulary (space- or comma-separated "key=value"
 * pairs) so jobs read like fio job files.
 */

#ifndef AFA_WORKLOAD_FIO_JOB_HH
#define AFA_WORKLOAD_FIO_JOB_HH

#include <cstdint>
#include <string>

#include "host/scheduler.hh"
#include "sim/types.hh"

namespace afa::workload {

using afa::sim::Tick;

/** I/O pattern. */
enum class RwMode : std::uint8_t {
    Read,      ///< sequential read
    Write,     ///< sequential write
    RandRead,  ///< random read (the paper's workload)
    RandWrite, ///< random write
    RandRw,    ///< mixed random
};

/** Parse fio's rw= spelling. */
RwMode parseRwMode(const std::string &text);

/** Name of an RwMode (fio spelling). */
const char *rwModeName(RwMode mode);

/** One fio job (per-thread parameters). */
struct FioJob
{
    std::string name = "job0";
    RwMode rw = RwMode::RandRead;
    std::uint32_t blockSize = 4096;
    unsigned ioDepth = 1;
    Tick runtime = afa::sim::sec(120);
    /** Mixed-mode read fraction (rwmixread, percent). */
    unsigned rwMixRead = 50;
    /** Target range in logical blocks; 0 size = whole device. */
    std::uint64_t offsetBlocks = 0;
    std::uint64_t sizeBlocks = 0;
    /** cpus_allowed: pinning mask. */
    afa::host::CpuMask cpusAllowed = afa::host::kAllCpus;
    /** chrt: run the thread SCHED_FIFO at this priority (0 = CFS). */
    int rtPriority = 0;

    /** CPU cost of the submit path (io_submit + blk-mq + driver). */
    Tick submitCost = afa::sim::nsec(1800);
    /** CPU cost of reaping a completion (io_getevents return). */
    Tick reapCost = afa::sim::nsec(1200);

    /** Thinktime between IOs (0 for the paper's closed loop). */
    Tick thinkTime = 0;

    /**
     * Poll for completions instead of sleeping on the interrupt
     * (Section V's poll-vs-interrupt discussion). The thread burns
     * its CPU in pollQuantum slices until the CQE appears; requires
     * iodepth=1 and a system with polled completions enabled.
     */
    bool polling = false;

    /** CPU-work size of one poll step. */
    Tick pollQuantum = afa::sim::nsec(1000);

    /**
     * Parse "key=value" options (whitespace or comma separated) into
     * a job, starting from the defaults above. Unknown keys are
     * fatal. Supported keys: name, rw, bs, iodepth, runtime,
     * rwmixread, offset, size, cpus_allowed, rtprio, thinktime,
     * polling/hipri. Numbers and durations are unsigned (a sign is
     * fatal, never wrapped) and range-checked: iodepth 1..65536,
     * rwmixread 0..100, rtprio 0..99; polling/hipri take only
     * 0/1/true/false.
     */
    static FioJob parse(const std::string &spec);
};

} // namespace afa::workload

#endif // AFA_WORKLOAD_FIO_JOB_HH
