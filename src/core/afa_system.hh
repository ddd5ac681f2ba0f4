/**
 * @file
 * The assembled all-flash-array system under test: host CPUs +
 * scheduler + IRQ subsystem + background load, the PCIe switch
 * fabric, 64 NVMe SSD models, and the NVMe driver glue that turns it
 * all into an async I/O engine for FIO threads.
 *
 * This mirrors the paper's Fig. 4 testbed: a dual-socket Xeon host
 * whose second socket owns a Gen3 x16 uplink into the 2OU AFA.
 */

#ifndef AFA_CORE_AFA_SYSTEM_HH
#define AFA_CORE_AFA_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "fault/fault_engine.hh"
#include "host/background.hh"
#include "host/irq.hh"
#include "host/scheduler.hh"
#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "pcie/afa_topology.hh"
#include "pcie/fabric.hh"
#include "sim/slot_pool.hh"
#include "workload/io_engine.hh"

namespace afa::obs {
class MetricsRegistry;
class Telemetry;
} // namespace afa::obs

namespace afa::core {

/** Everything configurable about the assembled system. */
struct AfaSystemParams
{
    unsigned ssds = 64;

    afa::host::CpuTopologyParams topology;
    afa::host::KernelConfig kernel;
    afa::host::BackgroundParams background =
        afa::host::BackgroundParams::centos7Defaults();

    afa::nvme::FirmwareConfig firmware;
    afa::nand::NandParams nand = simScaledNand();
    afa::nvme::FtlParams ftl;

    afa::pcie::AfaTopologyParams fabric;

    /** Section IV-D tuning: pin vectors, stop irqbalance. */
    bool pinIrqAffinity = false;

    /**
     * Single-event device command fast path (DESIGN.md §9). Off
     * forces every command through the chained event model; results
     * are tick-identical either way (the A/B is the exactness check),
     * only the executed-event count differs.
     */
    bool deviceFastPath = true;

    /** Bytes of a submission (SQE fetch + doorbell) on the fabric. */
    std::uint32_t sqeBytes = 72;

    /**
     * Optional fault plan (nullptr = healthy run). Loading a plan
     * arms the driver's command timeout/retry path and schedules the
     * plan's events via a FaultEngine; without one, every fault hook
     * is idle and the run is tick-identical to a build without them.
     * Shared so parallel sweep workers can reference one parse.
     */
    std::shared_ptr<const afa::fault::FaultPlan> faults;

    /**
     * NAND geometry scaled to the simulated 1 GiB logical space
     * (keeps 64 drives' FTL memory small); bandwidth and latency
     * parameters stay production-like.
     */
    static afa::nand::NandParams
    simScaledNand()
    {
        afa::nand::NandParams p;
        p.diesPerChannel = 8;
        p.blocksPerDie = 16;
        return p;
    }
};

/** Host NVMe driver recovery counters (all zero without faults). */
struct DriverStats
{
    std::uint64_t timeouts = 0;  ///< command timeouts fired
    std::uint64_t retries = 0;   ///< resubmissions after backoff
    std::uint64_t aborts = 0;    ///< IOs failed with Status::TimedOut
    /** Completions for commands the driver had already timed out
     *  (e.g. a limping device answering after the retry fired). */
    std::uint64_t staleCompletions = 0;
};

/** The system. Owns every component except the Simulator. */
class AfaSystem
{
  public:
    AfaSystem(afa::sim::Simulator &simulator,
              const AfaSystemParams &params,
              afa::sim::Tracer *tracer = nullptr);

    /** Start ticks, balancers, background load and SSD firmware. */
    void start();

    /** The async I/O engine FIO threads drive (the NVMe driver). */
    afa::workload::IoEngine &ioEngine();

    /**
     * Deliver completions without raising MSI-X interrupts: the
     * submitting thread discovers them by polling (Section V's
     * poll-vs-interrupt discussion). Pair with FioJob::polling.
     */
    void setPolledCompletions(bool polled) { polledMode = polled; }

    /** True when completions bypass the IRQ subsystem. */
    bool polledCompletions() const { return polledMode; }

    /**
     * Attach the obs span log to every instrumented layer (fabric,
     * scheduler, IRQ subsystem, each SSD's controller/FTL/NAND);
     * nullptr detaches. FIO threads attach themselves separately via
     * FioThread::attachSpanLog().
     */
    void setSpanLog(afa::obs::SpanLog *log);

    /**
     * Register this system's shard-0-resident sources on a telemetry
     * collector (DESIGN.md §14): fabric packet/byte/fast-path/
     * fallback counters, IRQ deliveries, context switches, a driver
     * in-flight gauge, and — on fault runs only, mirroring
     * publishMetrics() — driver recovery and fault bookkeeping
     * series, so healthy timelines never change when fault support
     * is compiled in. Device-resident state (nvme/ftl/nand) is
     * deliberately absent: sampling it live from shard 0 would race
     * with the device shards; per-device behaviour reaches the
     * timeline through the windowed stage histograms instead.
     */
    void attachTelemetry(afa::obs::Telemetry &telemetry);

    /**
     * Publish end-of-run component counters (fabric, IRQ, scheduler,
     * controllers, FTL, NAND, SMART) into @p registry under the
     * "<component>.<metric>" naming convention. Per-SSD counters are
     * summed across devices.
     */
    void publishMetrics(afa::obs::MetricsRegistry &registry) const;

    /**
     * Register an extra publisher that publishMetrics() invokes after
     * the built-in counters — how components the system does not own
     * (e.g. a raid::RebuildEngine) land in --metrics-json artifacts.
     */
    void addMetricsSource(
        std::function<void(afa::obs::MetricsRegistry &)> source);

    afa::host::Scheduler &scheduler() { return *sched; }
    afa::host::IrqSubsystem &irq() { return *irqSub; }
    afa::host::BackgroundLoad &background() { return *bg; }
    afa::pcie::Fabric &fabric() { return *pcieFabric; }
    afa::nvme::Controller &ssd(unsigned index);
    unsigned ssds() const { return static_cast<unsigned>(ctrls.size()); }
    const AfaSystemParams &params() const { return sysParams; }

    /** Driver recovery counters (timeouts/retries/aborts). */
    const DriverStats &driverStats() const;

    /** The fault engine, or nullptr when no plan is loaded. */
    afa::fault::FaultEngine *faultEngine() { return faults.get(); }

    /**
     * Which simulator shard each SSD subtree executes on (indexed by
     * device). All zeros in a serial run; under a sharded Simulator
     * the devices are block-partitioned over shards 1..K-1 while the
     * host, fabric and fault books stay on shard 0.
     */
    const std::vector<unsigned> &ssdShardMap() const { return ssdShards; }

    /** Outstanding driver commands, including retries waiting out
     *  their backoff (0 when quiescent). */
    std::size_t outstandingCommands() const;

  private:
    /** The NVMe driver: submission via the fabric, completion via
     *  MSI-X vectors into the IRQ subsystem. */
    class Driver : public afa::workload::IoEngine
    {
      public:
        Driver(AfaSystem &system, unsigned ssds)
            : sys(system), sqes(ssds)
        {
        }

        void submit(unsigned cpu,
                    const afa::workload::IoRequest &request,
                    CompleteFn on_device_complete) override;
        std::uint64_t deviceBlocks(unsigned device) const override;

        void onCompletion(unsigned device,
                          const afa::nvme::NvmeCompletion &completion);

        std::size_t outstanding() const
        {
            return liveIds + backoffWaits;
        }

        const DriverStats &stats() const { return drvStats; }

      private:
        /** One IO, from submit() until its completion callback runs
         *  (across retries; each attempt has its own command id). */
        struct Pending
        {
            CompleteFn fn;
            std::uint64_t tag = 0; ///< observability tag
            afa::workload::IoRequest req; ///< kept for resubmission
            unsigned cpu = 0;             ///< submitting CPU
            unsigned attempts = 0;        ///< retries so far
            afa::sim::EventHandle timeout;///< armed only with a plan
        };

        /** A live command id and the Pending slot it belongs to. */
        struct IdEntry
        {
            std::uint64_t id = 0; ///< 0 = empty (ids start at 1)
            std::uint32_t slot = 0;
        };

        void startAttempt(std::uint32_t slot);
        void onTimeout(std::uint64_t id);
        /** The slot of live command @p id, or nullptr. */
        const IdEntry *findId(std::uint64_t id) const;
        void mapId(std::uint64_t id, std::uint32_t slot);
        void unmapId(std::uint64_t id);
        void growIdTable();

        AfaSystem &sys;
        std::uint64_t nextCmdId = 1;
        afa::sim::SlotPool<Pending> pendings;
        /**
         * Live command ids, direct-mapped on their low bits. Ids are
         * handed out sequentially, so live ids only collide once they
         * span the whole table, which then doubles. Lookups are one
         * probe and inserts never allocate in steady state.
         */
        std::vector<IdEntry> idTable;
        std::size_t liveIds = 0;
        /** Commands crossing the fabric to each device (the delivery
         *  runs on the device's shard). */
        std::vector<afa::sim::HandoffPool<afa::nvme::NvmeCommand>> sqes;
        /** IOs between a timeout and their backed-off resubmission
         *  (no live command id, not on the device). */
        std::size_t backoffWaits = 0;
        DriverStats drvStats;
    };

    /** A device completion on its way to the fabric's shard. */
    struct Ship
    {
        afa::sim::Tick entry = 0; ///< device-side send tick
        std::uint32_t bytes = 0;
        std::uint64_t io = 0;
        afa::sim::EventFn fn;
    };

    afa::sim::Simulator &sim;
    AfaSystemParams sysParams;

    std::unique_ptr<afa::pcie::Fabric> pcieFabric;
    afa::pcie::AfaTopology fabricTopo;
    std::vector<std::unique_ptr<afa::nand::NandArray>> nands;
    std::vector<std::unique_ptr<afa::nvme::Controller>> ctrls;
    std::unique_ptr<afa::host::Scheduler> sched;
    std::unique_ptr<afa::host::IrqSubsystem> irqSub;
    std::unique_ptr<afa::host::BackgroundLoad> bg;
    std::unique_ptr<Driver> driver;
    std::unique_ptr<afa::fault::FaultEngine> faults;
    std::vector<unsigned> ssdShards;
    /** Per device: completions being shipped (see the transport). */
    std::vector<afa::sim::HandoffPool<Ship>> ships;
    std::vector<std::function<void(afa::obs::MetricsRegistry &)>>
        extraMetricsSources;
    afa::obs::SpanLog *spanLogPtr = nullptr;
    bool startedFlag = false;
    bool polledMode = false;
};

} // namespace afa::core

#endif // AFA_CORE_AFA_SYSTEM_HH
