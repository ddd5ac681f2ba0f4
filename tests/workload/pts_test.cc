/**
 * @file
 * SNIA PTS-E steady-state tests: the detection arithmetic on crafted
 * series (parameterised), the slope fit, and the round runner end to
 * end against a mock engine.
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "workload/pts.hh"

using namespace afa::workload;
using afa::sim::Simulator;
using afa::sim::msec;
using afa::sim::usec;

namespace {

TEST(SlopeTest, FlatSeriesHasZeroSlope)
{
    double flat[] = {5.0, 5.0, 5.0, 5.0};
    EXPECT_DOUBLE_EQ(bestFitSlope(flat, 4), 0.0);
}

TEST(SlopeTest, LinearSeriesRecovered)
{
    double line[] = {1.0, 3.0, 5.0, 7.0};
    EXPECT_NEAR(bestFitSlope(line, 4), 2.0, 1e-9);
}

TEST(SlopeTest, TooShortSeries)
{
    double one[] = {3.0};
    EXPECT_DOUBLE_EQ(bestFitSlope(one, 1), 0.0);
}

struct SeriesCase
{
    const char *name;
    std::vector<double> series;
    bool expectSteady;
    std::size_t expectAtRound; // when steady
};

// Without this gtest prints the case as raw bytes, including heap
// addresses, so the ctest name would change on every build.
void
PrintTo(const SeriesCase &c, std::ostream *os)
{
    *os << c.name;
}

class SteadyStateCases : public ::testing::TestWithParam<SeriesCase>
{
};

TEST_P(SteadyStateCases, Verdict)
{
    const auto &tc = GetParam();
    auto result = detectSteadyState(tc.series, SteadyStateParams{});
    EXPECT_EQ(result.steady, tc.expectSteady) << tc.name;
    if (tc.expectSteady) {
        EXPECT_EQ(result.steadyAtRound, tc.expectAtRound) << tc.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Series, SteadyStateCases,
    ::testing::Values(
        SeriesCase{"flat", {100, 100, 100, 100, 100}, true, 4},
        SeriesCase{"too_short", {100, 100, 100}, false, 0},
        SeriesCase{"small_noise",
                   {100, 103, 98, 101, 99}, true, 4},
        // 30% excursion breaks the 20% band.
        SeriesCase{"big_excursion",
                   {100, 130, 100, 100, 100}, false, 0},
        // Strong drift breaks the slope band even inside the band.
        SeriesCase{"drift",
                   {100, 105, 110, 115, 120}, false, 0},
        // Settles after a ramp: first qualifying window ends at 7.
        // The window {90,100,101,100,99} already qualifies: both
        // bands are generous enough once the ramp flattens.
        SeriesCase{"ramp_then_flat",
                   {50, 70, 90, 100, 101, 100, 99, 100}, true, 6},
        SeriesCase{"zeroes", {0, 0, 0, 0, 0}, false, 0}),
    [](const ::testing::TestParamInfo<SeriesCase> &info) {
        return info.param.name;
    });

TEST(SteadyStateTest, WindowParameterRespected)
{
    SteadyStateParams p;
    p.window = 3;
    auto r = detectSteadyState({100, 101, 99}, p);
    EXPECT_TRUE(r.steady);
    EXPECT_EQ(r.steadyAtRound, 2u);
}

TEST(SteadyStateTest, DegenerateWindowFatal)
{
    afa::sim::setThrowOnError(true);
    SteadyStateParams p;
    p.window = 1;
    EXPECT_THROW(detectSteadyState({1, 2}, p), afa::sim::SimError);
    afa::sim::setThrowOnError(false);
}

/** Mock engine with a latency that settles after a few rounds. */
class SettlingEngine : public IoEngine
{
  public:
    explicit SettlingEngine(Simulator &simulator) : sim(simulator) {}

    void
    submit(unsigned, const IoRequest &, CompleteFn fn) override
    {
        // Latency decays toward 20 us as the device "settles".
        afa::sim::Tick latency =
            usec(20) + usec(30) / (1 + completed / 500);
        ++completed;
        sim.scheduleAfter(latency,
                          [fn = std::move(fn)] { fn(IoResult{}); });
    }

    std::uint64_t deviceBlocks(unsigned) const override
    {
        return 262144;
    }

    Simulator &sim;
    std::uint64_t completed = 0;
};

TEST(PtsRunnerTest, RunsRoundsAndDetectsSteadyState)
{
    afa::sim::setThrowOnError(true);
    Simulator sim(31);
    afa::host::KernelConfig cfg;
    cfg.sched.rcuCallbackInterval = afa::sim::sec(10000);
    afa::host::Scheduler sched(sim, "sched",
                               afa::host::CpuTopology{}, cfg);
    SettlingEngine engine(sim);

    FioJob job = FioJob::parse(
        "rw=randread bs=4k iodepth=1 runtime=50ms");
    job.cpusAllowed = afa::host::CpuMask(1) << 4;
    PtsRunner runner(sim, "pts", sched, engine, 0, job, 10);
    runner.start();
    sim.run(afa::sim::sec(2));
    ASSERT_TRUE(runner.finished());
    ASSERT_EQ(runner.rounds().size(), 10u);

    // Early rounds are slower than late rounds (the settling).
    EXPECT_GT(runner.rounds().front().meanLatencyUs,
              runner.rounds().back().meanLatencyUs + 5.0);
    // IOPS correspondingly rise and reach steady state.
    auto iops = runner.iopsSteadyState();
    EXPECT_TRUE(iops.steady);
    EXPECT_GT(iops.windowAverage, 0.0);
    auto lat = runner.latencySteadyState();
    EXPECT_TRUE(lat.steady);
    afa::sim::setThrowOnError(false);
}

TEST(PtsRunnerTest, ZeroRoundsFatal)
{
    afa::sim::setThrowOnError(true);
    Simulator sim(1);
    afa::host::Scheduler sched(sim, "sched",
                               afa::host::CpuTopology{}, {});
    SettlingEngine engine(sim);
    FioJob job;
    EXPECT_THROW(PtsRunner(sim, "pts", sched, engine, 0, job, 0),
                 afa::sim::SimError);
    afa::sim::setThrowOnError(false);
}

} // namespace
