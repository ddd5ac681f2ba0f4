/**
 * @file
 * The figure benches' shared option parsing: open-loop flags are
 * range-checked instead of silently falling back to another traffic
 * model, single-run benches reject the run-plan flags they cannot
 * honour, the removed --shards flag is fatal instead of ignored, and
 * --help prints the flags instead of running a figure
 * (every bench binary's --help is checked end to end by the
 * <bench>_help ctest entries).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common.hh"
#include "sim/logging.hh"

namespace {

class BenchOptionsTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /** How a bench parses its flags. */
    enum class Mode {
        RunPlan,   ///< parseOptions()
        SingleRun, ///< parseSingleRunOptions()
        /** parseSingleRunOptions() of a bench that writes its own
         *  metrics JSON (fig_fault_tail). */
        SingleRunWithMetrics,
    };

    static afa::bench::BenchOptions
    parse(std::vector<std::string> args, Mode mode = Mode::RunPlan)
    {
        args.insert(args.begin(), "bench");
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        const int argc = static_cast<int>(argv.size());
        switch (mode) {
          case Mode::SingleRun:
            return afa::bench::parseSingleRunOptions(argc, argv.data());
          case Mode::SingleRunWithMetrics:
            return afa::bench::parseSingleRunOptions(
                argc, argv.data(), /*writes_metrics_json=*/true);
          case Mode::RunPlan:
            break;
        }
        return afa::bench::parseOptions(argc, argv.data());
    }

    /** The fatal diagnostic of a parse of @p args ("" if none). */
    static std::string
    errorOf(std::vector<std::string> args, Mode mode)
    {
        try {
            parse(std::move(args), mode);
        } catch (const afa::sim::SimError &e) {
            return e.message;
        }
        return "";
    }

    /** The fatal diagnostic of a single-run parse of @p args. */
    static std::string
    singleRunError(std::vector<std::string> args)
    {
        return errorOf(std::move(args), Mode::SingleRun);
    }
};

TEST_F(BenchOptionsTest, OpenLoopRateAndBurst)
{
    EXPECT_FALSE(parse({}).params.openLoop);
    EXPECT_FALSE(parse({"--rate=0"}).params.openLoop);
    auto poisson = parse({"--rate=1000"}).params.openLoop;
    ASSERT_TRUE(poisson);
    EXPECT_EQ(poisson->arrival.ratePerSec, 1000.0);
    EXPECT_EQ(poisson->arrival.kind, afa::workload::ArrivalKind::Poisson);
    auto bursty = parse({"--rate=1000", "--burst=4"}).params.openLoop;
    ASSERT_TRUE(bursty);
    EXPECT_EQ(bursty->arrival.kind, afa::workload::ArrivalKind::Bursty);
    EXPECT_EQ(bursty->arrival.burstFactor, 4.0);
}

TEST_F(BenchOptionsTest, BadOpenLoopFlagsAreFatal)
{
    // --rate=-5 used to run closed loop and --burst=0.5 plain Poisson.
    for (const char *flag : {"--rate=-5", "--rate=inf", "--rate=nan"})
        EXPECT_THROW(parse({flag}), afa::sim::SimError) << flag;
    for (const char *flag : {"--burst=0.5", "--burst=0", "--burst=-2",
                             "--burst=inf"})
        EXPECT_THROW(parse({"--rate=1000", flag}), afa::sim::SimError)
            << flag;
}

TEST_F(BenchOptionsTest, SingleRunBenchesRejectRunPlanFlags)
{
    // fig06-fig11 and fig13 make their runs directly: --jobs, --seeds
    // and --metrics-json used to be accepted and then ignored.
    EXPECT_EQ(parse({}, Mode::SingleRun).jobs, 1u);
    EXPECT_EQ(parse({"--jobs=1", "--seeds=1"}, Mode::SingleRun).seeds,
              1u);
    EXPECT_NE(singleRunError({"--jobs=4"}).find("--jobs 4"),
              std::string::npos);
    EXPECT_NE(singleRunError({"--jobs=0"}).find("--jobs 0"),
              std::string::npos);
    EXPECT_NE(singleRunError({"--seeds=3"}).find("--seeds 3"),
              std::string::npos);
    EXPECT_NE(singleRunError({"--metrics-json=m.json"})
                  .find("--metrics-json m.json"),
              std::string::npos);
    // The run-plan parse still takes all three.
    auto plan = parse({"--jobs=4", "--seeds=3", "--metrics-json=m.json"});
    EXPECT_EQ(plan.jobs, 4u);
    EXPECT_EQ(plan.seeds, 3u);
    EXPECT_EQ(plan.metricsJsonPath, "m.json");
}

TEST_F(BenchOptionsTest, HelpPrintsUsageAndExits)
{
    // --help used to be an unknown key: the bench ran its full
    // default figure (about 4 s for fig06). parseOptions() is the
    // first thing every figure bench calls, so exiting there means
    // nothing is built.
    EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"--ssds=8", "--help"}),
                ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"--jobs=4", "--help"}, Mode::SingleRun),
                ::testing::ExitedWithCode(0), "");
    const std::string usage = afa::bench::kCommonUsage;
    for (const char *flag :
         {"--ssds", "--runtime-ms", "--seed", "--jobs", "--seeds",
          "--metrics-json", "--trace", "--faults", "--telemetry",
          "--rate", "--burst", "--streams"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

TEST_F(BenchOptionsTest, FaultTailRejectsJobsAndSeedsButWritesMetrics)
{
    // fig_fault_tail builds its one run itself: --jobs 4 and --seeds 3
    // used to print output byte-identical to the default run. It does
    // write its own metrics JSON, so that flag stays.
    const Mode mode = Mode::SingleRunWithMetrics;
    EXPECT_NE(errorOf({"--jobs=4"}, mode).find("--jobs 4"),
              std::string::npos);
    EXPECT_NE(errorOf({"--seeds=3"}, mode).find("--seeds 3"),
              std::string::npos);
    EXPECT_EQ(parse({"--metrics-json=m.json"}, mode).metricsJsonPath,
              "m.json");
    EXPECT_EQ(parse({"--jobs=1", "--seeds=1"}, mode).jobs, 1u);
}

TEST_F(BenchOptionsTest, RemovedShardsFlagIsFatal)
{
    // Every run executes on one serial event loop: --shards would
    // otherwise be an unknown key that exits 0 and does nothing.
    for (const Mode mode :
         {Mode::RunPlan, Mode::SingleRun, Mode::SingleRunWithMetrics}) {
        for (const char *flag : {"--shards=2", "--shards=1"}) {
            const std::string err = errorOf({flag}, mode);
            EXPECT_NE(err.find("--shards was removed"),
                      std::string::npos)
                << flag;
            EXPECT_NE(err.find("--jobs"), std::string::npos) << flag;
        }
    }
    EXPECT_EQ(std::string(afa::bench::kCommonUsage).find("--shards"),
              std::string::npos);
}

} // namespace
