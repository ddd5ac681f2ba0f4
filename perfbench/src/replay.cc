#include "replay.hh"

#include "host/scheduler.hh"
#include "nand/nand_array.hh"
#include "nvme/controller.hh"
#include "pcie/afa_topology.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"

#include "clock.hh"

namespace perfbench {

namespace {

/**
 * Host ns per call, on the thread's CPU clock like the timed slices:
 * repeat @p step (which makes some number of calls and returns it) in
 * batches until @p budget_ns of CPU time has been used.
 */
template <typename Step>
double
nsPerCall(std::uint64_t budget_ns, Step &&step)
{
    std::uint64_t calls = 0;
    const std::uint64_t t0 = threadCpuNs();
    std::uint64_t elapsed = 0;
    do {
        for (int i = 0; i < 32; ++i)
            calls += step();
        elapsed = threadCpuNs() - t0;
    } while (elapsed < budget_ns);
    return static_cast<double>(elapsed) / static_cast<double>(calls);
}

/** Drive @p sim one event at a time until @p done holds. */
template <typename Pred>
void
stepUntil(afa::sim::Simulator &sim, Pred &&done)
{
    while (!done())
        sim.runSteps(1);
}

double
replayEventQueue(std::size_t pending, std::uint64_t budget_ns)
{
    afa::sim::EventQueue q;
    afa::sim::Rng rng(1);
    // A standing population far in the future, like the workload's
    // armed timers, so each pop pays that heap depth.
    const afa::sim::Tick far = afa::sim::Tick(1) << 50;
    for (std::size_t i = 0; i < pending; ++i)
        q.schedule(far + rng.uniformInt(1, 1u << 30), [] {});
    afa::sim::Tick t = 0;
    afa::sim::Tick when = 0;
    return nsPerCall(budget_ns, [&] {
        q.schedule(++t, [] {});
        q.runNext(when);
        return 1;
    });
}

double
replayScheduler(std::uint64_t budget_ns)
{
    afa::sim::Simulator sim(1);
    afa::host::KernelConfig cfg;
    cfg.sched.rcuCallbackInterval = afa::sim::sec(100000);
    afa::host::Scheduler sched(sim, "sched", afa::host::CpuTopology{},
                               cfg);
    afa::host::TaskParams tp;
    tp.name = "replay";
    const auto task = sched.createTask(tp);
    return nsPerCall(budget_ns, [&] {
        bool done = false;
        // One fio submit segment: block -> run -> block.
        sched.runFor(task, afa::sim::nsec(1800), [&] { done = true; });
        stepUntil(sim, [&] { return done; });
        return 1;
    });
}

struct FabricReplay
{
    afa::sim::Simulator sim{1};
    afa::pcie::Fabric fabric{sim, "fabric"};
    afa::pcie::AfaTopology topo;

    explicit FabricReplay(unsigned ssds)
    {
        afa::pcie::AfaTopologyParams tp;
        tp.ssds = ssds;
        topo = buildAfaTopology(fabric, tp);
    }
};

double
replayFabricIdle(unsigned ssds, std::uint64_t budget_ns)
{
    FabricReplay r(ssds);
    unsigned dev = 0;
    return nsPerCall(budget_ns, [&] {
        bool done = false;
        r.fabric.send(r.topo.ssds[dev++ % ssds], r.topo.host, 4096,
                      [&] { done = true; });
        stepUntil(r.sim, [&] { return done; });
        return 1;
    });
}

double
replayFabricContended(unsigned ssds, std::uint64_t budget_ns)
{
    // Eight data returns funnelling into the shared uplink at once.
    constexpr unsigned kBurst = 8;
    FabricReplay r(ssds);
    return nsPerCall(budget_ns, [&] {
        unsigned pending = kBurst;
        for (unsigned b = 0; b < kBurst; ++b)
            r.fabric.send(r.topo.ssds[b * ssds / kBurst], r.topo.host,
                          4096, [&] { --pending; });
        stepUntil(r.sim, [&] { return pending == 0; });
        return kBurst;
    });
}

/** One SSD stack on a loopback transport, shaped like @p def. */
struct DeviceReplay
{
    afa::sim::Simulator sim{7};
    afa::nand::NandArray nand;
    afa::nvme::Controller ctrl;
    bool done = false;

    explicit DeviceReplay(const WorkloadDef &def)
        : nand(sim, "nand", def.nand),
          ctrl(sim, "nvme0",
               [] {
                   afa::nvme::FirmwareConfig fw;
                   fw.smart.enabled = false;
                   return fw;
               }(),
               nand, def.ftl)
    {
        ctrl.setTransport([this](std::uint32_t, std::uint64_t,
                                 afa::sim::EventFn fn) {
            sim.scheduleAfter(afa::sim::usec(2), std::move(fn));
        });
        ctrl.setCompletionHandler(
            [this](const afa::nvme::NvmeCompletion &) { done = true; });
        ctrl.start();
        if (def.precondition > 0.0)
            ctrl.ftl().precondition(def.precondition);
    }
};

double
replayCommand(const WorkloadDef &def, afa::nvme::Op op,
              std::uint64_t budget_ns)
{
    DeviceReplay d(def);
    const std::uint64_t blocks = d.ctrl.ftl().logicalBlocks();
    afa::sim::Rng rng(11);
    std::uint64_t id = 1;
    return nsPerCall(budget_ns, [&] {
        afa::nvme::NvmeCommand cmd;
        cmd.cmdId = id;
        cmd.tag = id;
        ++id;
        cmd.op = op;
        cmd.lba = rng.uniformInt(0, blocks - 1);
        cmd.bytes = afa::nvme::kLogicalBlockBytes;
        d.done = false;
        d.ctrl.submit(cmd);
        stepUntil(d.sim, [&] { return d.done; });
        return 1;
    });
}

double
replayNand(const WorkloadDef &def, std::uint64_t budget_ns)
{
    afa::sim::Simulator sim(3);
    afa::nand::NandArray nand(sim, "nand", def.nand);
    const unsigned dies = def.nand.totalDies();
    unsigned i = 0;
    return nsPerCall(budget_ns, [&] {
        bool done = false;
        nand.read(nand.addrForDie(i % dies, 0, (i / dies) %
                                                   def.nand.pagesPerBlock),
                  afa::nvme::kLogicalBlockBytes, [&] { done = true; });
        ++i;
        stepUntil(sim, [&] { return done; });
        return 1;
    });
}

} // namespace

ReplayCosts
replayLayers(const WorkloadDef &def, std::size_t pending,
             std::uint64_t budget_ns)
{
    ReplayCosts c;
    c.eventPop = replayEventQueue(pending, budget_ns);
    c.schedSwitch = replayScheduler(budget_ns);
    c.packetIdle = replayFabricIdle(def.ssds, budget_ns);
    c.packetContended = replayFabricContended(def.ssds, budget_ns);
    c.readCommand = replayCommand(def, afa::nvme::Op::Read, budget_ns);
    c.writeCommand = replayCommand(def, afa::nvme::Op::Write, budget_ns);
    c.nandOp = replayNand(def, budget_ns);
    return c;
}

} // namespace perfbench
