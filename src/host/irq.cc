#include "host/irq.hh"

#include <algorithm>

#include "obs/span_log.hh"
#include "sim/logging.hh"

namespace afa::host {

IrqSubsystem::IrqSubsystem(afa::sim::Simulator &simulator,
                           std::string irq_name, Scheduler &scheduler,
                           unsigned devices,
                           afa::sim::Tracer *trace_sink)
    : SimObject(simulator, std::move(irq_name)), sched(scheduler),
      numDevices(devices),
      numQueues(scheduler.topology().logicalCpus()),
      tracer(trace_sink), balancerStopped(false)
{
    if (devices == 0)
        afa::sim::fatal("%s: need at least one device", name().c_str());
    std::size_t n =
        static_cast<std::size_t>(numDevices) * numQueues;
    affinity.resize(n);
    counts.assign(n, 0);
    countsAtLastScan.assign(n, 0);
    pinned.assign(n, false);
    // Driver-default spread: queue q's vector targets CPU q.
    for (unsigned d = 0; d < numDevices; ++d)
        for (unsigned q = 0; q < numQueues; ++q)
            affinity[index(d, q)] = q;
    const CpuTopology &topo = scheduler.topology();
    nodeCpus = topo.cpusOnSocket(topo.uplinkSocket());
}

std::size_t
IrqSubsystem::index(unsigned device, unsigned queue) const
{
    if (device >= numDevices || queue >= numQueues)
        afa::sim::panic("%s: bad vector (%u, %u)", name().c_str(),
                        device, queue);
    return static_cast<std::size_t>(device) * numQueues + queue;
}

unsigned
IrqSubsystem::effectiveCpu(unsigned device, unsigned queue) const
{
    return affinity[index(device, queue)];
}

std::uint64_t
IrqSubsystem::vectorCount(unsigned device, unsigned queue) const
{
    return counts[index(device, queue)];
}

void
IrqSubsystem::setAffinity(unsigned device, unsigned queue, unsigned cpu)
{
    if (cpu >= numQueues)
        afa::sim::fatal("%s: affinity cpu %u out of range",
                        name().c_str(), cpu);
    std::size_t i = index(device, queue);
    affinity[i] = cpu;
    pinned[i] = true;
}

void
IrqSubsystem::pinAllToQueueCpus()
{
    for (unsigned d = 0; d < numDevices; ++d)
        for (unsigned q = 0; q < numQueues; ++q) {
            std::size_t i = index(d, q);
            affinity[i] = q;
            pinned[i] = true;
        }
    balancerStopped = true;
}

void
IrqSubsystem::start()
{
    const auto &cfg = sched.config().irq;
    if (!cfg.irqBalanceEnabled || balancerStopped)
        return;
    // irqbalance has been running since boot: do an initial placement
    // pass promptly, then rescan periodically.
    after(afa::sim::msec(100), [this] { balancerScan(); });
}

void
IrqSubsystem::balancerScan()
{
    const auto &cfg = sched.config().irq;
    if (balancerStopped || !cfg.irqBalanceEnabled)
        return;
    ++irqStats.rebalances;
    // irqbalance keeps a vector inside the NUMA node of its device;
    // the AFA hangs off the uplink socket. It spreads *busy* vectors
    // evenly over that socket's CPUs -- with no idea which CPU the
    // submitting task runs on.
    std::size_t next = 0;
    // Deterministic shuffle of the starting offset per scan.
    next = static_cast<std::size_t>(
        rng().uniformInt(0, nodeCpus.size() - 1));
    for (unsigned d = 0; d < numDevices; ++d) {
        for (unsigned q = 0; q < numQueues; ++q) {
            std::size_t i = index(d, q);
            if (pinned[i])
                continue;
            bool busy = counts[i] > countsAtLastScan[i];
            countsAtLastScan[i] = counts[i];
            if (!busy)
                continue;
            unsigned target = nodeCpus[next % nodeCpus.size()];
            ++next;
            if (affinity[i] != target) {
                affinity[i] = target;
                ++irqStats.vectorMoves;
                if (tracer && tracer->enabled("irq.balance"))
                    tracer->record(
                        now(), "irq.balance",
                        afa::sim::strfmt("irq(%u,%u) -> cpu%u", d, q,
                                         target));
            }
        }
    }
    after(cfg.irqBalanceInterval, [this] { balancerScan(); });
}

void
IrqSubsystem::raise(unsigned device, unsigned queue, HandlerFn handler,
                    std::uint64_t io)
{
    std::size_t i = index(device, queue);
    ++counts[i];
    ++irqStats.delivered;
    unsigned cpu = affinity[i];
    const auto &cfg = sched.config().irq;
    const CpuTopology &topo = sched.topology();

    Tick cost = cfg.hardirqCost + cfg.softirqCost;
    if (cpu != queue)
        ++irqStats.remoteDeliveries;
    // Interrupt arriving on the wrong socket pays the QPI crossing.
    if (topo.socketOf(cpu) != topo.uplinkSocket()) {
        cost += cfg.crossSocketPenalty;
        ++irqStats.crossSocket;
    }

    const std::uint32_t slot = deliveries.acquire();
    Delivery &dv = deliveries[slot];
    dv.handler = std::move(handler);
    dv.raised = now();
    dv.io = io;
    dv.cpu = cpu;
    dv.device = device;
    // The span covers raise -> handler execution: c-state exit plus
    // the hardirq/softirq work, on the handler CPU's track. The
    // Remote flag marks the paper's misplacement (handler CPU is not
    // the submission queue's CPU).
    dv.flags =
        cpu != queue ? afa::obs::kSpanFlagRemote : std::uint8_t(0);
    dv.span = spanLog && spanLog->wants(afa::obs::Category::Irq);
    sched.interrupt(cpu, cost, [this, slot] { deliver(slot); });
}

void
IrqSubsystem::deliver(std::uint32_t slot)
{
    Delivery &dv = deliveries[slot];
    HandlerFn handler = std::move(dv.handler);
    dv.handler = nullptr;
    const unsigned cpu = dv.cpu;
    if (dv.span)
        spanLog->record(afa::obs::Stage::IrqDeliver, dv.io, dv.raised,
                        now(), afa::obs::cpuTrack(cpu), dv.flags,
                        dv.device);
    deliveries.release(slot);
    handler(cpu);
}

} // namespace afa::host
