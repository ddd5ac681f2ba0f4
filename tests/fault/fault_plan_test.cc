/**
 * @file
 * FaultPlan spec parsing: directives, defaults, validation errors,
 * deterministic event ordering, and the summary rendering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "fault/fault_plan.hh"
#include "sim/logging.hh"

using namespace afa::fault;
using afa::sim::msec;

namespace {

class FaultPlanTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /** The fatal diagnostic of parsing @p text ("" if it parsed). */
    static std::string
    errorOf(const std::string &text)
    {
        try {
            FaultPlan::parseText(text);
        } catch (const afa::sim::SimError &e) {
            return e.message;
        }
        return "";
    }
};

TEST_F(FaultPlanTest, DefaultsWithoutDirectives)
{
    auto plan = FaultPlan::parseText("");
    EXPECT_EQ(plan.nvmeTimeout, msec(10));
    EXPECT_EQ(plan.maxRetries, 3u);
    EXPECT_EQ(plan.retryBackoff, msec(1));
    EXPECT_TRUE(plan.events.empty());
}

TEST_F(FaultPlanTest, ParsesEveryDirective)
{
    auto plan = FaultPlan::parseText(
        "# driver policy\n"
        "timeout_ms 5\n"
        "max_retries 2\n"
        "retry_backoff_ms 0.5\n"
        "\n"
        "limp       ssd=3 at_ms=20 dur_ms=40 factor=8\n"
        "dropout    ssd=5 at_ms=10 dur_ms=15\n"
        "link_error ssd=2 at_ms=5  dur_ms=30 rate=0.2\n"
        "ctrl_stall ssd=0 at_ms=12 dur_ms=2  # trailing comment\n");
    EXPECT_EQ(plan.nvmeTimeout, msec(5));
    EXPECT_EQ(plan.maxRetries, 2u);
    EXPECT_EQ(plan.retryBackoff, msec(0.5));
    ASSERT_EQ(plan.events.size(), 4u);
    // Events come back sorted by onset, not by spec order.
    EXPECT_EQ(plan.events[0].kind, FaultKind::LinkError);
    EXPECT_EQ(plan.events[0].ssd, 2u);
    EXPECT_EQ(plan.events[0].at, msec(5));
    EXPECT_EQ(plan.events[0].duration, msec(30));
    EXPECT_DOUBLE_EQ(plan.events[0].rate, 0.2);
    EXPECT_EQ(plan.events[1].kind, FaultKind::Dropout);
    EXPECT_EQ(plan.events[2].kind, FaultKind::CtrlStall);
    EXPECT_EQ(plan.events[3].kind, FaultKind::Limp);
    EXPECT_DOUBLE_EQ(plan.events[3].factor, 8.0);
}

TEST_F(FaultPlanTest, RejectsBadSpecs)
{
    // Unknown directive.
    EXPECT_THROW(FaultPlan::parseText("limpp ssd=0 at_ms=0 dur_ms=1"),
                 afa::sim::SimError);
    // Missing required field.
    EXPECT_THROW(FaultPlan::parseText("limp ssd=0 at_ms=0 factor=2"),
                 afa::sim::SimError);
    // Limp factor below 1 would speed the device up.
    EXPECT_THROW(
        FaultPlan::parseText("limp ssd=0 at_ms=0 dur_ms=1 factor=0.5"),
        afa::sim::SimError);
    // Certain-corruption links would replay forever.
    EXPECT_THROW(
        FaultPlan::parseText(
            "link_error ssd=0 at_ms=0 dur_ms=1 rate=1.0"),
        afa::sim::SimError);
    // Negative and non-numeric values.
    EXPECT_THROW(FaultPlan::parseText("timeout_ms -4"),
                 afa::sim::SimError);
    EXPECT_THROW(FaultPlan::parseText("timeout_ms ten"),
                 afa::sim::SimError);
    EXPECT_THROW(FaultPlan::parseText("timeout_ms 1 2"),
                 afa::sim::SimError);
}

TEST_F(FaultPlanTest, FileRoundTrip)
{
    const char *path = "fault_plan_test.plan";
    {
        std::ofstream out(path);
        out << "dropout ssd=7 at_ms=3 dur_ms=9\n";
    }
    auto plan = FaultPlan::parseFile(path);
    std::remove(path);
    ASSERT_EQ(plan.events.size(), 1u);
    EXPECT_EQ(plan.events[0].kind, FaultKind::Dropout);
    EXPECT_EQ(plan.events[0].ssd, 7u);
    EXPECT_THROW(FaultPlan::parseFile("no_such_plan_file"),
                 afa::sim::SimError);
}

TEST_F(FaultPlanTest, SummaryNamesEveryEvent)
{
    auto plan = FaultPlan::parseText(
        "limp ssd=3 at_ms=20 dur_ms=40 factor=8\n"
        "link_error ssd=2 at_ms=5 dur_ms=30 rate=0.25\n");
    std::string text = plan.summary();
    EXPECT_NE(text.find("2 event(s)"), std::string::npos);
    EXPECT_NE(text.find("limp"), std::string::npos);
    EXPECT_NE(text.find("link_error"), std::string::npos);
    EXPECT_NE(text.find("factor=8.0"), std::string::npos);
    EXPECT_NE(text.find("rate=0.250"), std::string::npos);
    EXPECT_EQ(faultKindName(FaultKind::CtrlStall),
              std::string("ctrl_stall"));
}

TEST_F(FaultPlanTest, RejectsUnknownKeys)
{
    // "facter" and "bogus" used to be ignored: the limp ran with no
    // complaint about either.
    EXPECT_NE(errorOf("limp ssd=1 at_ms=0 dur_ms=1 factor=2 facter=9")
                  .find("limp takes no 'facter=' field"),
              std::string::npos);
    EXPECT_NE(errorOf("dropout ssd=1 at_ms=0 dur_ms=1 bogus=1")
                  .find("'bogus='"),
              std::string::npos);
    // A field valid for another verb is unknown on this one.
    EXPECT_NE(errorOf("dropout ssd=1 at_ms=0 dur_ms=1 rate=0.1")
                  .find("dropout takes no 'rate=' field"),
              std::string::npos);
    EXPECT_NE(errorOf("ctrl_stall ssd=1 at_ms=0 dur_ms=1 extra")
                  .find("'extra' is not a key=value field"),
              std::string::npos);
}

TEST_F(FaultPlanTest, RejectsDuplicateKeys)
{
    EXPECT_NE(errorOf("limp ssd=1 ssd=2 at_ms=0 dur_ms=1 factor=2")
                  .find("duplicate 'ssd=' field"),
              std::string::npos);
    EXPECT_NE(errorOf("link_error ssd=1 at_ms=0 dur_ms=1 rate=0.1 "
                      "rate=0.2")
                  .find("duplicate 'rate=' field"),
              std::string::npos);
}

TEST_F(FaultPlanTest, RejectsNonFiniteNumbers)
{
    // "timeout_ms nan" used to print a 9.2e12 ms timeout, and
    // "ssd=inf" targeted ssd0.
    for (const char *text :
         {"timeout_ms nan", "timeout_ms inf", "retry_backoff_ms nan",
          "limp ssd=inf at_ms=0 dur_ms=1 factor=2",
          "limp ssd=1 at_ms=nan dur_ms=1 factor=2",
          "limp ssd=1 at_ms=0 dur_ms=infinity factor=2",
          "limp ssd=1 at_ms=0 dur_ms=1 factor=inf",
          "link_error ssd=1 at_ms=0 dur_ms=1 rate=nan"})
        EXPECT_NE(errorOf(text).find("expected a finite"),
                  std::string::npos)
            << text;
}

TEST_F(FaultPlanTest, RejectsNonIntegerOrOutOfRangeSsd)
{
    // "ssd=1.7" used to run as ssd1.
    for (const char *ssd : {"1.7", "0.5", "1e12", "4294967296"}) {
        const std::string text = std::string("limp ssd=") + ssd +
                                 " at_ms=0 dur_ms=1 factor=2";
        EXPECT_NE(errorOf(text).find("ssd: expected an integer"),
                  std::string::npos)
            << text;
    }
    EXPECT_NE(errorOf("dropout ssd=-1 at_ms=0 dur_ms=1")
                  .find("ssd: expected a finite non-negative number"),
              std::string::npos);
    EXPECT_EQ(FaultPlan::parseText("dropout ssd=4294967295 at_ms=0 "
                                   "dur_ms=1")
                  .events.at(0)
                  .ssd,
              4294967295u);
}

TEST_F(FaultPlanTest, RejectsNonIntegerOrOutOfRangeMaxRetries)
{
    // "max_retries 1e12" used to print 3,567,587,328 retries; the
    // backoff doubles per retry as a shift of a 64-bit tick.
    for (const char *text :
         {"max_retries 1e12", "max_retries 33", "max_retries 2.5"})
        EXPECT_NE(errorOf(text).find("max_retries: expected an integer "
                                     "in [0, 32]"),
                  std::string::npos)
            << text;
    EXPECT_EQ(FaultPlan::parseText("max_retries 32").maxRetries, 32u);
    EXPECT_EQ(FaultPlan::parseText("max_retries 0").maxRetries, 0u);
}

TEST_F(FaultPlanTest, RejectsTimesBeyondTheClock)
{
    for (const char *text :
         {"timeout_ms 1e300", "retry_backoff_ms 1e13",
          "ctrl_stall ssd=0 at_ms=1e300 dur_ms=1",
          "ctrl_stall ssd=0 at_ms=0 dur_ms=1e13"})
        EXPECT_NE(errorOf(text).find("beyond the simulated clock"),
                  std::string::npos)
            << text;
    EXPECT_EQ(FaultPlan::parseText("timeout_ms 1e12").nvmeTimeout,
              msec(1e12));
}

} // namespace
