/**
 * @file
 * Differential bit-identity suite: a figure-style experiment rendered
 * to its canonical report strings must be byte-for-byte identical at
 * every --jobs worker count, with and without span tracing and
 * telemetry, with a fault plan, and for open-loop traffic. These are
 * the reduced-scale twins of the fig06/fig09/fig14 bench comparisons
 * in EXPERIMENTS.md.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_plan.hh"
#include "fault/fault_plan.hh"
#include "obs/span.hh"
#include "sim/logging.hh"

using namespace afa::core;
using afa::sim::msec;

namespace {

class DeterminismTest : public ::testing::Test
{
  protected:
    void SetUp() override { afa::sim::setThrowOnError(true); }
    void TearDown() override { afa::sim::setThrowOnError(false); }

    /**
     * A reduced fig-style config: 8 SSDs over a short run keeps each
     * execution well under a second.
     */
    static ExperimentParams
    baseParams(TuningProfile profile)
    {
        ExperimentParams p;
        p.profile = profile;
        p.ssds = 8;
        p.runtime = msec(100);
        p.smartPeriod = msec(40);
        p.irqBalanceInterval = msec(40);
        p.seed = 20260808;
        return p;
    }

    /**
     * Everything the figures print, plus the event count: any
     * divergence between executions must show up here. Wall-clock
     * rates are intentionally absent -- they are the only output the
     * determinism contract excludes.
     */
    static std::string
    canonical(const ExperimentResult &r)
    {
        std::ostringstream os;
        os << describeExperiment(r) << perDeviceTable(r).toString()
           << '\n'
           << envelopeTable(r).toString() << '\n'
           << "runs=" << r.runs << " events=" << r.simulatedEvents
           << " spanDrops=" << r.spanDrops << '\n'
           << r.attribution.toText();
        return os.str();
    }

    /**
     * Two seed replicas of @p p through the parallel sweep runner at
     * @p jobs workers, each rendered by @p render and concatenated.
     */
    template <typename Render>
    static std::string
    renderPlan(const ExperimentParams &p, unsigned jobs, Render render)
    {
        RunPlan plan(p);
        plan.seeds(2);
        ParallelExperimentRunner runner(jobs);
        std::string out;
        for (const auto &r : runner.run(plan.expand()))
            out += render(r);
        return out;
    }

    /** Canonical reports of renderPlan() at jobs 1 and 4 agree, and
     *  the first replica equals a direct serial run. */
    static void
    expectJobsInvariant(const ExperimentParams &p)
    {
        const std::string serial = renderPlan(p, 1, canonical);
        EXPECT_EQ(renderPlan(p, 4, canonical), serial);
        EXPECT_EQ(serial.find(canonical(ExperimentRunner::run(p))), 0u);
    }

    /** The frontier bench's base config at test scale: open-loop
     *  mixed bursty traffic with a zipfian hot spot, exercising every
     *  Rng fork the engine owns. */
    static ExperimentParams
    openLoopParams()
    {
        auto p = baseParams(TuningProfile::Default);
        afa::workload::OpenLoopParams ol;
        ol.arrival.kind = afa::workload::ArrivalKind::Bursty;
        ol.arrival.ratePerSec = 100000.0;
        ol.streams = 2;
        ol.readFraction = 0.7;
        ol.zipfTheta = 0.9;
        p.openLoop = ol;
        return p;
    }

    /** Everything the frontier figure prints from the open-loop
     *  slice, plus the event count: counters, per-stream accounting
     *  and the response-histogram shape. */
    static std::string
    openLoopCanonical(const ExperimentResult &r)
    {
        std::ostringstream os;
        const auto stream = [&os](const char *tag,
                                  const afa::workload::
                                      OpenLoopStreamStats &s) {
            os << tag << " arrivals=" << s.arrivals << " submitted="
               << s.submitted << " completed=" << s.completed
               << " dropped=" << s.dropped << " errors=" << s.errors
               << " rd=" << s.readBytes << " wr=" << s.writeBytes
               << " peak=" << s.backlogPeak << " backlog="
               << s.finalBacklog << " inflight=" << s.inflightAtEnd
               << " gt1ms=" << s.exceed[0] << '\n';
        };
        stream("totals", r.openLoop.totals);
        for (std::size_t i = 0; i < r.openLoop.perStream.size(); ++i)
            stream(afa::sim::strfmt("s%zu", i).c_str(),
                   r.openLoop.perStream[i]);
        const auto &h = r.openLoop.responseHist;
        os << "hist n=" << h.count() << " min=" << h.min() << " max="
           << h.max() << " p50=" << h.quantile(0.50) << " p99="
           << h.quantile(0.99) << '\n'
           << "events=" << r.simulatedEvents << '\n';
        return os.str();
    }
};

TEST_F(DeterminismTest, Fig06DefaultProfileBitIdentical)
{
    expectJobsInvariant(baseParams(TuningProfile::Default));
}

TEST_F(DeterminismTest, Fig09IrqAffinityTracedBitIdentical)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.traceMask = afa::obs::kAllCategories;
    expectJobsInvariant(params);
}

TEST_F(DeterminismTest, TracingDoesNotPerturbTheModel)
{
    // The traced and untraced runs must agree on everything but the
    // attribution section (absent when untraced).
    auto params = baseParams(TuningProfile::IrqAffinity);
    auto untraced = ExperimentRunner::run(params);
    params.traceMask = afa::obs::kAllCategories;
    auto traced = ExperimentRunner::run(params);
    EXPECT_EQ(describeExperiment(traced), describeExperiment(untraced));
    EXPECT_EQ(perDeviceTable(traced).toString(),
              perDeviceTable(untraced).toString());
    EXPECT_EQ(traced.simulatedEvents, untraced.simulatedEvents);
}

TEST_F(DeterminismTest, Fig14GeometryVariantBitIdentical)
{
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.variant = GeometryVariant::OnePerCore;
    expectJobsInvariant(params);
}

TEST_F(DeterminismTest, FaultPlanBitIdenticalAcrossJobs)
{
    // Controller faults on several devices (band-1 internal posts)
    // and link errors drawing from per-link RNG streams.
    auto plan = std::make_shared<afa::fault::FaultPlan>(
        afa::fault::FaultPlan::parseText(
            "timeout_ms 10\n"
            "max_retries 3\n"
            "retry_backoff_ms 1\n"
            "limp       ssd=1 at_ms=20 dur_ms=60 factor=6\n"
            "link_error ssd=2 at_ms=10 dur_ms=80 rate=0.15\n"
            "link_error ssd=6 at_ms=30 dur_ms=50 rate=0.10\n"
            "dropout    ssd=4 at_ms=50 dur_ms=12\n"
            "ctrl_stall ssd=0 at_ms=40 dur_ms=3\n",
            "<determinism_test>"));
    auto params = baseParams(TuningProfile::IrqAffinity);
    params.faults = plan;
    expectJobsInvariant(params);

    // Tracing stacked on top of the faulted run moves no model byte.
    const auto untraced = ExperimentRunner::run(params);
    params.traceMask = afa::obs::kAllCategories;
    expectJobsInvariant(params);
    const auto traced = ExperimentRunner::run(params);
    EXPECT_EQ(describeExperiment(traced), describeExperiment(untraced));
    EXPECT_EQ(traced.simulatedEvents, untraced.simulatedEvents);
}

TEST_F(DeterminismTest, TelemetryOnOffBitIdentical)
{
    // The telemetry contract (DESIGN.md §13): sampling rides internal
    // events, so enabling --telemetry must leave every canonical
    // report byte-identical.
    const auto off = baseParams(TuningProfile::Default);
    const std::string base = canonical(ExperimentRunner::run(off));
    auto on = off;
    on.telemetryWindow = msec(10);
    const auto result = ExperimentRunner::run(on);
    EXPECT_EQ(canonical(result), base);
    // And the run actually produced a timeline.
    EXPECT_FALSE(result.telemetry.empty());
    EXPECT_FALSE(result.telemetry.stages.empty());
}

TEST_F(DeterminismTest, TelemetryTimelineBitIdenticalAcrossJobs)
{
    // The whole timeline -- stage histograms, counter/gauge series
    // and the sim self-profile rows -- is a deterministic artifact.
    auto params = baseParams(TuningProfile::Default);
    params.telemetryWindow = msec(10);
    const auto timeline = [](const ExperimentResult &r) {
        return r.telemetry.toJsonLines();
    };
    const std::string serial = renderPlan(params, 1, timeline);
    EXPECT_NE(serial.find("\"kind\":\"stage\""), std::string::npos);
    EXPECT_NE(serial.find("\"kind\":\"sim\""), std::string::npos);
    EXPECT_EQ(renderPlan(params, 4, timeline), serial);
}

TEST_F(DeterminismTest, TelemetryOnOffBitIdenticalAcrossJobs)
{
    // The parallel sweep runner: 2 seed replicas rendered at jobs
    // {1,4}, telemetry on and off — all four executions must agree
    // on every canonical report, independent of worker count.
    auto off = baseParams(TuningProfile::Default);
    auto on = off;
    on.telemetryWindow = msec(10);
    const std::string serial_off = renderPlan(off, 1, canonical);
    EXPECT_EQ(renderPlan(off, 4, canonical), serial_off);
    EXPECT_EQ(renderPlan(on, 1, canonical), serial_off);
    EXPECT_EQ(renderPlan(on, 4, canonical), serial_off);
}

TEST_F(DeterminismTest, OpenLoopTelemetryOnOffBitIdentical)
{
    // The open-loop contract (DESIGN.md §14): every draw comes from
    // named per-stream forks, so the frontier-style canonical output
    // is unmoved by telemetry sampling.
    const auto params = openLoopParams();
    const auto serial = ExperimentRunner::run(params);
    const std::string base = openLoopCanonical(serial);
    // The run did real open-loop work with exact accounting.
    EXPECT_FALSE(serial.openLoop.empty());
    const auto &t = serial.openLoop.totals;
    EXPECT_GT(t.completed, 1000u);
    EXPECT_EQ(t.arrivals, t.submitted + t.dropped + t.finalBacklog);
    EXPECT_EQ(t.submitted, t.completed + t.inflightAtEnd);

    auto telem = params;
    telem.telemetryWindow = msec(10);
    const auto result = ExperimentRunner::run(telem);
    EXPECT_EQ(openLoopCanonical(result), base);
    EXPECT_FALSE(result.telemetry.empty());
}

TEST_F(DeterminismTest, OpenLoopBitIdenticalAcrossJobs)
{
    // Seed replicas of the open-loop run through the parallel sweep
    // runner: worker count and telemetry must not move a byte of the
    // merged open-loop slice.
    auto off = openLoopParams();
    auto on = off;
    on.telemetryWindow = msec(10);
    const std::string serial_off = renderPlan(off, 1, openLoopCanonical);
    EXPECT_EQ(renderPlan(off, 4, openLoopCanonical), serial_off);
    EXPECT_EQ(renderPlan(on, 1, openLoopCanonical), serial_off);
    EXPECT_EQ(renderPlan(on, 4, openLoopCanonical), serial_off);
}

TEST_F(DeterminismTest, EventCountUnmovedByObservability)
{
    // simulatedEvents excludes plumbing (device ships, telemetry
    // samples): it must be non-trivial and identical with tracing
    // and telemetry on.
    auto params = baseParams(TuningProfile::Default);
    const auto plain = ExperimentRunner::run(params);
    EXPECT_GT(plain.simulatedEvents, 100000u);
    params.traceMask = afa::obs::kAllCategories;
    params.telemetryWindow = msec(10);
    EXPECT_EQ(ExperimentRunner::run(params).simulatedEvents,
              plain.simulatedEvents);
}

} // namespace
