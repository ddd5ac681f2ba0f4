/**
 * @file
 * The benchmark's four workloads, built through AFASim's public APIs.
 *
 * Each workload is a fixed simulated scenario: the seed is the only
 * input that varies between runs, so the same (workload, seed) pair
 * always simulates the same IOs. An Instance is one freshly built
 * simulated array with its traffic source armed; the harness in
 * main.cc drives its Simulator forward and reads it back.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/afa_system.hh"
#include "core/tuning.hh"
#include "obs/metrics.hh"
#include "obs/span_log.hh"
#include "raid/rebuild.hh"
#include "raid/volume.hh"
#include "sim/simulator.hh"
#include "workload/fio_thread.hh"
#include "workload/openloop.hh"

namespace perfbench {

using afa::sim::Tick;

/** How a workload drives the array. */
enum class Traffic
{
    ClosedLoop, ///< one QD1 FioThread per SSD
    OpenLoop,   ///< an OpenLoopEngine over every SSD
    Raid,       ///< QD1 FioThreads on a RAID-5 volume, with faults
};

/** Static description of one workload. */
struct WorkloadDef
{
    std::string name;
    Traffic traffic = Traffic::ClosedLoop;
    afa::core::TuningProfile profile = afa::core::TuningProfile::Default;
    unsigned ssds = 0;
    /** Simulated length of the measured phase. */
    Tick duration = 0;
    /** Simulated length of one timed run() slice. */
    Tick slice = 0;
    /** Open loop: aggregate arrival rate and share of reads. */
    double ratePerSec = 0.0;
    double readFraction = 1.0;
    /** Raid: closed-loop client threads on the volume. */
    unsigned clients = 0;
    /** Fraction of every drive mapped before the run (0 = FOB). */
    double precondition = 0.0;
    /** NAND and FTL shapes (the replay pass reuses them). */
    afa::nand::NandParams nand = afa::core::AfaSystemParams::simScaledNand();
    afa::nvme::FtlParams ftl;
};

/** The workloads, in the order BENCHMARK.json lists them. */
const std::vector<WorkloadDef> &workloads();

/** Lookup by name (nullptr when unknown). */
const WorkloadDef *findWorkload(const std::string &name);

/** Host-clock totals of the TimingEngine. */
struct TimingCounters
{
    std::uint64_t submits = 0;
    std::uint64_t submitNs = 0;
    std::uint64_t completions = 0;
    std::uint64_t completionNs = 0;
};

/**
 * An IoEngine interposer that times the driver's submit() and the
 * workload's completion callback with the host clock. It forwards
 * every call unchanged, so the simulation cannot tell it is there.
 */
class TimingEngine : public afa::workload::IoEngine
{
  public:
    explicit TimingEngine(afa::workload::IoEngine &inner_engine)
        : inner(inner_engine)
    {
    }

    void submit(unsigned cpu, const afa::workload::IoRequest &request,
                CompleteFn on_device_complete) override;
    std::uint64_t deviceBlocks(unsigned device) const override
    {
        return inner.deviceBlocks(device);
    }

    const TimingCounters &counters() const { return totals; }

  private:
    afa::workload::IoEngine &inner;
    TimingCounters totals;
};

/**
 * One built workload. Member order is destruction order in reverse:
 * traffic sources go first, the system next, the Simulator last.
 */
struct Instance
{
    const WorkloadDef *def = nullptr;
    std::unique_ptr<afa::sim::Simulator> sim;
    std::unique_ptr<afa::obs::SpanLog> spans;
    std::unique_ptr<afa::core::AfaSystem> system;
    std::unique_ptr<TimingEngine> timing;
    std::unique_ptr<afa::raid::ParityVolume> volume;
    std::unique_ptr<afa::raid::RebuildEngine> rebuild;
    std::vector<std::unique_ptr<afa::workload::FioThread>> threads;
    std::unique_ptr<afa::workload::OpenLoopEngine> openLoop;
    /** Client IOs completed by the end of the measured phase (set by
     *  finish()). */
    std::uint64_t measuredIos = 0;

    /** Client IOs completed so far (errors included). */
    std::uint64_t completedIos() const;
    /** Client IOs offered so far (arrivals or submissions). */
    std::uint64_t attemptedIos() const;
    /** True once every client IO has been reaped. */
    bool drained() const;
    /** Completion-latency histogram over all clients (ticks). */
    afa::stats::Histogram latencyHistogram() const;
};

/**
 * Build and start @p def at @p seed. @p traced adds the TimingEngine
 * between the workload and the driver and a span log on every layer.
 */
std::unique_ptr<Instance> build(const WorkloadDef &def,
                                std::uint64_t seed, bool traced);

/**
 * Run to the end of the measured phase (a no-op when the harness
 * already has), note the IOs completed by then, then run the tail:
 * grace, then drain in-flight IOs.
 */
void finish(Instance &inst);

/** End-of-run correctness and exercise checks of one instance. */
struct RunCheck
{
    std::uint64_t attempted = 0;
    /** Ops lost by a conservation identity. */
    std::uint64_t lost = 0;
    /** Exercise guards that did not hold (empty when all did). */
    std::vector<std::string> guardFailures;
    /** Identity violations, for the log. */
    std::vector<std::string> identityFailures;
};

/**
 * Everything the harness reads from a finished instance, so that the
 * instance can be freed before the next repetition is built.
 */
struct Outcome
{
    RunCheck check;
    /** Hash of the simulated results: what the model computed. */
    std::string digest;
    /** Hash of how the simulator computed them: event counts and
     *  fast-path/fallback splits. Only repeatable for one build. */
    std::string implDigest;

    std::uint64_t ios = 0; ///< client IOs completed, drain included
    std::uint64_t measuredIos = 0; ///< by the end of the measured phase
    afa::stats::Histogram latency;
    /** AfaSystem::publishMetrics at the end of the run. */
    afa::obs::MetricsSnapshot metrics;
    std::uint64_t modelEvents = 0;
    std::uint64_t plumbingEvents = 0;
    Tick simEnd = 0;
    unsigned cpus = 0;
    std::uint64_t ftlPrograms = 0; ///< NAND pages the FTLs programmed
    afa::core::DriverStats driver;
    std::uint64_t dropped = 0;
    std::uint64_t finalBacklog = 0;
    std::uint64_t memberIos = 0;
    std::uint64_t degradedReads = 0;
    double rebuildMs = 0.0; ///< 0 unless the rebuild finished
    std::uint64_t faultsApplied = 0;

    /** Traced instances only. */
    afa::obs::Attribution attribution;
    std::uint64_t spanDrops = 0;
    TimingCounters timing;
};

/**
 * Check, digest and read back a finished instance. The model digest
 * hashes the simulated histograms, the model counters of
 * AfaSystem::publishMetrics and the workload's own stats; the
 * implementation digest hashes event counts and fast-path splits.
 */
Outcome conclude(const Instance &inst);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
