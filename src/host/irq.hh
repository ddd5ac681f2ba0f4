/**
 * @file
 * MSI-X vector routing and the irqbalance daemon model.
 *
 * Each (device, queue) pair has an interrupt vector; the NVMe driver
 * creates one queue per logical CPU per device, so a 64-SSD, 40-CPU
 * host has 2,560 vectors (the paper's irq(n,c) handlers). A vector's
 * *affinity* decides which CPU its hardirq runs on. The driver's
 * initial spread maps queue q to CPU q; the irqbalance daemon then
 * periodically reassigns busy vectors across the device's NUMA node
 * without regard for the submitting CPU -- which is exactly the
 * misplacement the paper traced with LTTng (irq(0,4) running on
 * cpu30). Section IV-D's fix pins every vector back to its queue's
 * CPU and stops the daemon.
 */

#ifndef AFA_HOST_IRQ_HH
#define AFA_HOST_IRQ_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "host/cpu_topology.hh"
#include "host/kernel_config.hh"
#include "host/scheduler.hh"
#include "sim/sim_object.hh"
#include "sim/slot_pool.hh"

namespace afa::host {

/** Statistics of the IRQ subsystem. */
struct IrqStats
{
    std::uint64_t delivered = 0;
    std::uint64_t remoteDeliveries = 0; ///< handler CPU != queue CPU
    std::uint64_t crossSocket = 0;
    std::uint64_t rebalances = 0;       ///< balancer passes
    std::uint64_t vectorMoves = 0;      ///< affinity changes applied
};

/**
 * The interrupt subsystem: vectors, affinity, delivery, and the
 * irqbalance daemon.
 */
class IrqSubsystem : public afa::sim::SimObject
{
  public:
    /** Runs in irq context once the hardirq+softirq work retired. */
    using HandlerFn = std::function<void(unsigned handler_cpu)>;

    IrqSubsystem(afa::sim::Simulator &simulator, std::string irq_name,
                 Scheduler &scheduler, unsigned devices,
                 afa::sim::Tracer *tracer = nullptr);

    /**
     * Raise the vector of (device, queue): the hardirq executes on the
     * vector's affinity CPU (paying c-state exit, stealing CPU time),
     * then the softirq completion work, then @p handler. @p io tags
     * the delivery span (0 = untagged).
     */
    void raise(unsigned device, unsigned queue, HandlerFn handler,
               std::uint64_t io = 0);

    /** Attach (or detach, with nullptr) the obs span log. */
    void setSpanLog(afa::obs::SpanLog *log) { spanLog = log; }

    /** Current affinity CPU of a vector. */
    unsigned effectiveCpu(unsigned device, unsigned queue) const;

    /** Manually pin one vector (procfs smp_affinity / tuna). */
    void setAffinity(unsigned device, unsigned queue, unsigned cpu);

    /**
     * The paper's Section IV-D tuning: pin every vector of every
     * device to its queue's CPU and disable the balancer.
     */
    void pinAllToQueueCpus();

    /** Begin the irqbalance daemon (if enabled in the config). */
    void start();

    /** Total vectors (devices x queues). */
    std::size_t vectors() const { return affinity.size(); }

    /** Interrupt counts per vector since boot. */
    std::uint64_t vectorCount(unsigned device, unsigned queue) const;

    const IrqStats &stats() const { return irqStats; }

  private:
    Scheduler &sched;
    unsigned numDevices;
    unsigned numQueues; ///< per device == logical CPUs
    afa::sim::Tracer *tracer;
    afa::obs::SpanLog *spanLog = nullptr;

    /// affinity[device * numQueues + queue] = handler CPU
    std::vector<unsigned> affinity;
    std::vector<std::uint64_t> counts;
    std::vector<std::uint64_t> countsAtLastScan;
    std::vector<bool> pinned;
    bool balancerStopped;
    /** The uplink socket's CPUs: irqbalance's target set. */
    std::vector<unsigned> nodeCpus;

    /**
     * A raised interrupt waiting out its hardirq/softirq work. The
     * handler and span fields are parked here so the scheduled
     * closure is just [this, slot]: a std::function plus its
     * arguments would overflow EventFn's inline buffer.
     */
    struct Delivery
    {
        HandlerFn handler;
        Tick raised = 0;
        std::uint64_t io = 0;
        unsigned cpu = 0;
        unsigned device = 0;
        std::uint8_t flags = 0;
        bool span = false; ///< record an IrqDeliver span on delivery
    };
    afa::sim::SlotPool<Delivery> deliveries;

    IrqStats irqStats;

    std::size_t index(unsigned device, unsigned queue) const;
    void balancerScan();
    void deliver(std::uint32_t slot);
};

} // namespace afa::host

#endif // AFA_HOST_IRQ_HH
