/**
 * @file
 * Unit tests for the Simulator: clock semantics, run bounds, stop
 * requests, scheduling helpers, same-tick ordering bands, internal
 * (plumbing) events and reclaim.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulator.hh"

using afa::sim::EventHandle;
using afa::sim::Simulator;
using afa::sim::Tick;

namespace {

class SimulatorTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    Simulator sim{42};
};

TEST_F(SimulatorTest, ClockStartsAtZero)
{
    EXPECT_EQ(sim.now(), 0u);
}

TEST_F(SimulatorTest, RunAdvancesClockToEventTimes)
{
    std::vector<Tick> seen;
    sim.scheduleAt(100, [&] { seen.push_back(sim.now()); });
    sim.scheduleAt(250, [&] { seen.push_back(sim.now()); });
    sim.run();
    EXPECT_EQ(seen, (std::vector<Tick>{100, 250}));
    EXPECT_EQ(sim.now(), 250u);
}

TEST_F(SimulatorTest, ScheduleAfterIsRelative)
{
    Tick fired_at = 0;
    sim.scheduleAt(100, [&] {
        sim.scheduleAfter(50, [&] { fired_at = sim.now(); });
    });
    sim.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST_F(SimulatorTest, RunUntilStopsClockAtBound)
{
    int fired = 0;
    sim.scheduleAt(100, [&] { ++fired; });
    sim.scheduleAt(300, [&] { ++fired; });
    sim.run(200);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 200u);
    // Remaining event still pending and runs on the next call.
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now(), 300u);
}

TEST_F(SimulatorTest, EventExactlyAtBoundRuns)
{
    int fired = 0;
    sim.scheduleAt(200, [&] { ++fired; });
    sim.run(200);
    EXPECT_EQ(fired, 1);
}

TEST_F(SimulatorTest, RequestStopEndsRun)
{
    int fired = 0;
    sim.scheduleAt(10, [&] {
        ++fired;
        sim.requestStop();
    });
    sim.scheduleAt(20, [&] { ++fired; });
    sim.run();
    EXPECT_EQ(fired, 1);
    // A later run() resumes.
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST_F(SimulatorTest, SchedulingInPastPanics)
{
    sim.scheduleAt(100, [&] {
        EXPECT_THROW(sim.scheduleAt(50, [] {}), afa::sim::SimError);
    });
    sim.run();
}

TEST_F(SimulatorTest, RunStepsLimitsExecution)
{
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        sim.scheduleAt(i, [&] { ++fired; });
    EXPECT_EQ(sim.runSteps(4), 4u);
    EXPECT_EQ(fired, 4);
    EXPECT_EQ(sim.now(), 4u);
}

TEST_F(SimulatorTest, CancelStopsScheduledEvent)
{
    int fired = 0;
    auto h = sim.scheduleAt(10, [&] { ++fired; });
    EXPECT_TRUE(sim.pending(h));
    EXPECT_TRUE(sim.cancel(h));
    EXPECT_FALSE(sim.pending(h));
    EXPECT_FALSE(sim.cancel(h));
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST_F(SimulatorTest, RunReturnsExecutedCount)
{
    for (int i = 1; i <= 5; ++i)
        sim.scheduleAt(i, [] {});
    EXPECT_EQ(sim.run(), 5u);
    EXPECT_EQ(sim.executedEvents(), 5u);
}

TEST_F(SimulatorTest, SeedIsExposed)
{
    EXPECT_EQ(sim.seed(), 42u);
}

TEST_F(SimulatorTest, RecurringEventChainTerminatesAtBound)
{
    // A self-rescheduling event (like a timer tick) must stop at the
    // run bound without draining the queue.
    int ticks = 0;
    std::function<void()> tick = [&] {
        ++ticks;
        sim.scheduleAfter(10, tick);
    };
    sim.scheduleAt(0, tick);
    sim.run(100);
    EXPECT_EQ(ticks, 11); // t = 0, 10, ..., 100
    EXPECT_EQ(sim.now(), 100u);
}

/**
 * Cases named after the intra-run sharded core this Simulator
 * replaced. Each one checks a rule that core had to keep and that the
 * serial loop still keeps: internal (plumbing) events, cancel and
 * reclaim from inside a running event, same-tick ordering bands, and
 * the clock after a bounded run.
 */
class ShardedSimulatorTest : public SimulatorTest
{
};

TEST_F(ShardedSimulatorTest, InternalEventsAreNotCounted)
{
    int fired = 0;
    sim.scheduleAt(5, [&] {
        ++fired;
        sim.scheduleAt(50, [&] { ++fired; }, /*band=*/0,
                       /*internal=*/true);
        sim.scheduleAt(60, [&] { ++fired; });
    });
    const std::uint64_t executed = sim.run();
    EXPECT_EQ(fired, 3);
    // The internal event is plumbing: only the poster and the plain
    // event count as model events.
    EXPECT_EQ(executed, 2u);
    EXPECT_EQ(sim.executedEvents(), 2u);
    EXPECT_EQ(sim.plumbingEvents(), 1u);
}

TEST_F(ShardedSimulatorTest, InternalDiscountMatchesSerial)
{
    // An event whose only child is internal counts once, whatever
    // band the child runs in.
    int fired = 0;
    sim.scheduleAt(5, [&] {
        sim.scheduleAt(50, [&] { ++fired; }, /*band=*/3,
                       /*internal=*/true);
    });
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.plumbingEvents(), 1u);
}

TEST_F(ShardedSimulatorTest, CrossCancelBeforeDelivery)
{
    // Cancel from inside a running event, before the target fires.
    bool fired = false;
    sim.scheduleAt(5, [&] {
        EventHandle h = sim.scheduleAt(200, [&] { fired = true; });
        EXPECT_TRUE(sim.pending(h));
        EXPECT_TRUE(sim.cancel(h));
        EXPECT_FALSE(sim.pending(h));
        EXPECT_FALSE(sim.cancel(h));
    });
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_FALSE(fired);
    EXPECT_EQ(sim.now(), 5u);
}

TEST_F(ShardedSimulatorTest, ReclaimReturnsTheCallback)
{
    int fired = 0;
    sim.scheduleAt(5, [&] {
        EventHandle h = sim.scheduleAt(50, [&] { ++fired; });
        afa::sim::EventFn fn = sim.reclaim(h);
        EXPECT_FALSE(sim.pending(h));
        EXPECT_THROW(sim.reclaim(h), afa::sim::SimError);
        fn(); // runs here, at tick 5
        EXPECT_EQ(fired, 1);
    });
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    EXPECT_EQ(sim.now(), 5u);
}

TEST_F(ShardedSimulatorTest, ReclaimWorksOnPlainHandles)
{
    // A handle reclaimed before the run starts leaves nothing queued;
    // the callback still runs when the caller invokes it.
    int fired = 0;
    EventHandle h = sim.scheduleAt(50, [&] { ++fired; });
    afa::sim::EventFn fn = sim.reclaim(h);
    EXPECT_EQ(sim.pendingEvents(), 0u);
    fn();
    EXPECT_EQ(sim.run(), 0u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 0u);
}

TEST_F(ShardedSimulatorTest, OrderingBandsRunAfterPlainEvents)
{
    // Same tick: band-0 events in FIFO order first, then ascending
    // bands. Bands scheduled out of numeric order still sort.
    std::string order;
    sim.scheduleAt(10, [&] { order += 'c'; }, 7);
    sim.scheduleAt(10, [&] { order += 'a'; });
    sim.scheduleAt(10, [&] { order += 'b'; }, 3);
    sim.scheduleAt(10, [&] { order += 'A'; });
    sim.run();
    EXPECT_EQ(order, "aAbc");
}

TEST_F(ShardedSimulatorTest, BandOrderIsIdenticalAcrossShardCounts)
{
    // Two posters at different ticks hit tick 50 in different bands:
    // the band, not the posting order, decides.
    std::string order;
    sim.scheduleAt(5, [&] {
        sim.scheduleAt(50, [&] { order += 'y'; }, 9);
    });
    sim.scheduleAt(6, [&] {
        sim.scheduleAt(50, [&] { order += 'x'; }, 4);
    });
    sim.run();
    EXPECT_EQ(order, "xy");
}

TEST_F(ShardedSimulatorTest, ClockEqualisedAfterBoundedRun)
{
    sim.scheduleAt(100, [] {});
    sim.scheduleAt(900, [] {});
    EXPECT_EQ(sim.run(500), 1u);
    // An event remains beyond the bound: the clock rests at the bound.
    EXPECT_EQ(sim.now(), 500u);
    EXPECT_EQ(sim.pendingEvents(), 1u);
}

TEST_F(SimulatorTest, RunStepsAgreesWithRunOnEventTimes)
{
    auto build = [](Simulator &s, std::vector<Tick> &ticks) {
        s.scheduleAt(5, [&s, &ticks] {
            ticks.push_back(s.now());
            s.scheduleAt(20, [&s, &ticks] { ticks.push_back(s.now()); },
                         /*band=*/2);
            s.scheduleAt(20, [&s, &ticks] { ticks.push_back(s.now()); },
                         /*band=*/0, /*internal=*/true);
        });
    };
    Simulator run_sim(1);
    std::vector<Tick> run_ticks;
    build(run_sim, run_ticks);
    run_sim.run();

    Simulator step_sim(1);
    std::vector<Tick> step_ticks;
    build(step_sim, step_ticks);
    EXPECT_EQ(step_sim.runSteps(100), 3u);
    EXPECT_EQ(step_ticks, run_ticks);
    EXPECT_EQ(step_sim.now(), run_sim.now());
    EXPECT_EQ(step_sim.executedEvents(), run_sim.executedEvents());
}

} // namespace
