/**
 * @file
 * Event-budget regression: a small closed-loop QD1 run over the AFA
 * tree must keep the fabric's transit to one walk per packet. The
 * counts are exact functions of the seed, so the bounds cannot flake:
 * model events are the simulated behaviour (pinned exactly), while
 * plumbing events and the fast-path share say how much queue work
 * the simulator spends producing it.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/afa_system.hh"
#include "core/geometry.hh"
#include "core/tuning.hh"
#include "sim/simulator.hh"
#include "workload/fio_thread.hh"

using namespace afa::core;
using afa::sim::msec;

namespace {

// The per-hop fabric model's counts for this run (seed 1).
constexpr std::uint64_t kExpectedIos = 442;
constexpr std::uint64_t kExpectedModelEvents = 3198;

struct BudgetRun
{
    std::uint64_t ios = 0;
    std::uint64_t modelEvents = 0;
    std::uint64_t plumbingEvents = 0;
    afa::pcie::FabricStats fabric;
};

/** 8 SSDs, one QD1 4 KiB random-read fio thread each, for 2 ms. */
BudgetRun
runClosedLoopQd1()
{
    constexpr unsigned kSsds = 8;
    afa::sim::Simulator sim(1);
    Geometry geometry(afa::host::CpuTopology{}, kSsds);
    const TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::Default, geometry);
    AfaSystemParams sp;
    sp.ssds = kSsds;
    sp.kernel = tuning.kernel;
    sp.firmware = tuning.firmware;
    sp.pinIrqAffinity = tuning.pinIrqAffinity;
    AfaSystem system(sim, sp);

    std::vector<std::unique_ptr<afa::workload::FioThread>> threads;
    const auto runs = geometry.runsFor(GeometryVariant::FourPerCore);
    for (const auto &p : runs.front()) {
        afa::workload::FioJob job;
        job.runtime = msec(2);
        job.cpusAllowed = afa::host::CpuMask(1) << p.cpu;
        job.rtPriority = tuning.fioRtPriority;
        job.name = "fio";
        threads.push_back(std::make_unique<afa::workload::FioThread>(
            sim, "fio", system.scheduler(), system.ioEngine(), p.device,
            job));
    }
    system.start();
    for (auto &t : threads)
        t->start(0);
    sim.run(msec(2));

    BudgetRun r;
    for (const auto &t : threads)
        r.ios += t->stats().completed;
    r.modelEvents = sim.executedEvents();
    for (const auto &s : sim.shardStats().shards)
        r.plumbingEvents += s.plumbingEvents;
    r.fabric = system.fabric().stats();
    return r;
}

TEST(EventBudgetTest, ClosedLoopQd1FabricTransitIsOneWalkPerPacket)
{
    const BudgetRun r = runClosedLoopQd1();
    ASSERT_GT(r.ios, 0u);
    // The simulated behaviour: exactly the model events of the
    // per-hop transit model this walk replaced.
    EXPECT_EQ(r.ios, kExpectedIos);
    EXPECT_EQ(r.modelEvents, kExpectedModelEvents);
    // Every packet is walked once at send time.
    EXPECT_GE(static_cast<double>(r.fabric.fastPathPackets),
              0.95 * static_cast<double>(r.fabric.packets));
    // What is left of the plumbing: the shipped completion send and
    // the release of its host-bound delivery, about one each per IO.
    EXPECT_LE(static_cast<double>(r.plumbingEvents),
              2.1 * static_cast<double>(r.ios));
}

} // namespace
