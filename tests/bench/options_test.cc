/**
 * @file
 * The figure benches' shared option parsing: open-loop flags are
 * range-checked instead of silently falling back to another traffic
 * model, and --help prints the flags instead of running a figure.
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

    static afa::bench::BenchOptions
    parse(std::vector<std::string> args)
    {
        args.insert(args.begin(), "bench");
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        return afa::bench::parseOptions(static_cast<int>(argv.size()),
                                        argv.data());
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

TEST_F(BenchOptionsTest, HelpPrintsUsageAndExits)
{
    // --help used to be an unknown key: the bench ran its full
    // default figure (about 4 s for fig06). parseOptions() is the
    // first thing every figure bench calls, so exiting there means
    // nothing is built.
    EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
    EXPECT_EXIT(parse({"--ssds=8", "--help"}),
                ::testing::ExitedWithCode(0), "");
    const std::string usage = afa::bench::kCommonUsage;
    for (const char *flag :
         {"--ssds", "--runtime-ms", "--seed", "--jobs", "--seeds",
          "--metrics-json", "--trace", "--faults", "--telemetry",
          "--rate", "--burst", "--streams"})
        EXPECT_NE(usage.find(flag), std::string::npos) << flag;
}

} // namespace
