/**
 * @file
 * Shared plumbing for the figure benches: option parsing into
 * ExperimentParams and the standard report block.
 *
 * Every bench accepts the common flags listed in kCommonUsage; --help
 * prints them and exits before anything is built.
 */

#ifndef AFA_BENCH_COMMON_HH
#define AFA_BENCH_COMMON_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_plan.hh"
#include "fault/fault_plan.hh"
#include "obs/perfetto.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

namespace afa::bench {

/** The common flags, as --help prints them. */
inline constexpr const char *kCommonUsage = R"(Common flags:
  --ssds N          devices (default 64, the paper's host slice)
  --runtime-ms M    per-run measurement (default 4000; the paper
                    ran 120000 -- pass it for full fidelity)
  --seed S          root random seed
  --smart-period-ms SMART cadence (default 1000; paper ~30000,
                    scaled so spikes-per-run matches 120s/30s)
  --irqbalance-ms   irqbalance rescan cadence (default 1000;
                    daemon default 10000, same scaling)
  --csv             emit CSV instead of aligned tables
  --per-device      also print the full 64-row per-device ladder
  --report          append the system attribution report
  --jobs N          worker threads for the run plan (default 1;
                    0 = all hardware threads). Results are
                    bit-identical to a serial run. Benches without
                    a run plan (fig06-fig11, fig13, tail_at_scale)
                    reject --jobs, --seeds and --metrics-json.
  --shards N        event-core shards inside every run (default 1).
                    Partitions the SSD subtrees over N conservative
                    shards; results are bit-identical to --shards 1,
                    only faster. Composes with --jobs (threads used
                    = jobs * shards).
  --seeds N         replicate every run with seeds S..S+N-1 and
                    aggregate the ladders across replicas
  --metrics-json F  also write the per-run metrics JSON to file F
                    (includes the system metrics when tracing is on)
  --trace C[,C...]  enable span tracing for the listed categories
                    (workload,sched,pcie,nvme,smart,ftl,nand,irq,
                    fault or "all"); results stay bit-identical,
                    only telemetry is added
  --faults F        load a fault plan from spec file F and inject
                    it into every run (see src/fault/fault_plan.hh
                    for the spec format); arms the driver
                    timeout/retry policy and publishes the fault
                    counters in --metrics-json
  --fault-summary   print the parsed fault plan before running
  --trace-out F     write a Chrome/Perfetto trace-event JSON of the
                    last reported figure's first run to file F
                    (implies --trace all when --trace is absent)
  --attribution     print the per-stage latency attribution table
                    under every figure (implies --trace all when
                    --trace is absent)
  --device-fastpath B  single-event device command fast path
                    (default 1). 0 forces the chained event model;
                    results are bit-identical, only slower -- the
                    A/B is the exactness check (DESIGN.md §9)
  --telemetry W     sample a windowed telemetry timeline every W
                    simulated milliseconds (DESIGN.md §14): per-
                    stage latency histograms with ACT-style
                    exceed counters, counter/gauge series, and
                    the simulator self-profile. Figures stay
                    byte-identical with or without it
  --telemetry-out F write the timeline as JSON lines to file F
                    (implies --telemetry 100 when absent)
  --telemetry-csv F write the timeline as tidy CSV to file F
                    (implies --telemetry 100 when absent)

Open-loop traffic flags (DESIGN.md §15). A non-zero --rate switches
the run from closed-loop FIO threads to the arrival-driven
OpenLoopEngine:
  --rate R          aggregate offered load in ops/sec (0 = closed
                    loop, the default)
  --duration-ms M   open-loop measurement duration (alias of
                    --runtime-ms; the latter wins when both given)
  --mix P           read percentage of the mixed workload
                    (default 100 = pure reads)
  --zipf T          zipfian theta in [0, 1) for hot-spot device
                    addressing (default 0 = uniform)
  --burst B         burst factor: arrivals come from an on/off
                    process firing at B x the mean rate with duty
                    cycle 1/B (default 1 = plain Poisson)
  --streams N       independent submitter streams (default 4)
)";

struct BenchOptions
{
    afa::core::ExperimentParams params;
    bool csv = false;
    bool perDevice = false;
    unsigned jobs = 1;
    unsigned seeds = 1;
    std::string metricsJsonPath;
    std::string traceOutPath;
    bool attribution = false;
    std::string telemetryOutPath;
    std::string telemetryCsvPath;
};

/**
 * Print @p usage and exit 0 when --help is among the flags. Benches
 * call it first, so --help builds and runs nothing.
 */
inline void
exitOnHelp(const afa::sim::Config &cfg, const char *argv0,
           const char *usage)
{
    if (!cfg.has("help"))
        return;
    std::printf("usage: %s [flags]\n\n%s", argv0, usage);
    std::exit(0);
}

inline BenchOptions
parseOptions(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);
    exitOnHelp(cfg, argv[0], kCommonUsage);
    BenchOptions opts;
    auto &p = opts.params;
    p.ssds = static_cast<unsigned>(cfg.getUint("ssds", 64));
    p.runtime = afa::sim::msec(
        static_cast<double>(cfg.getUint("runtime_ms", 4000)));
    p.seed = cfg.getUint("seed", 1);
    p.smartPeriod = afa::sim::msec(
        static_cast<double>(cfg.getUint("smart_period_ms", 1000)));
    p.irqBalanceInterval = afa::sim::msec(
        static_cast<double>(cfg.getUint("irqbalance_ms", 1000)));
    p.job = afa::workload::FioJob::parse(
        cfg.getString("job", "rw=randread bs=4k iodepth=1"));
    // --duration-ms is the open-loop spelling of the measurement
    // length; an explicit --runtime-ms still wins.
    const std::uint64_t duration_ms = cfg.getUint("duration_ms", 0);
    if (duration_ms > 0 && cfg.getUint("runtime_ms", 0) == 0)
        p.runtime = afa::sim::msec(static_cast<double>(duration_ms));
    // A negative or non-finite rate used to fall back to closed loop,
    // and a burst factor below 1 to plain Poisson, without a word.
    const double rate = cfg.getDouble("rate", 0.0);
    if (!std::isfinite(rate) || rate < 0.0)
        afa::sim::fatal("--rate must be a finite arrival rate >= 0 "
                        "(0 = closed loop), got %g", rate);
    const double burst = cfg.getDouble("burst", 1.0);
    if (!std::isfinite(burst) || burst < 1.0)
        afa::sim::fatal("--burst must be a finite factor >= 1, got %g",
                        burst);
    if (rate > 0.0) {
        afa::workload::OpenLoopParams ol;
        ol.arrival.ratePerSec = rate;
        if (burst > 1.0) {
            ol.arrival.kind = afa::workload::ArrivalKind::Bursty;
            ol.arrival.burstFactor = burst;
        }
        ol.readFraction = cfg.getDouble("mix", 100.0) / 100.0;
        ol.zipfTheta = cfg.getDouble("zipf", 0.0);
        ol.streams = static_cast<unsigned>(cfg.getUint("streams", 4));
        p.openLoop = ol;
    }
    opts.csv = cfg.getBool("csv", false);
    opts.perDevice = cfg.getBool("per_device", false);
    p.captureSystemReport = cfg.getBool("report", false);
    p.shards = static_cast<unsigned>(cfg.getUint("shards", 1));
    if (p.shards == 0)
        p.shards = 1;
    opts.jobs = static_cast<unsigned>(cfg.getUint("jobs", 1));
    opts.seeds = static_cast<unsigned>(cfg.getUint("seeds", 1));
    if (opts.seeds == 0)
        opts.seeds = 1;
    opts.metricsJsonPath = cfg.getString("metrics_json", "");
    std::string trace = cfg.getString("trace", "");
    if (!trace.empty())
        p.traceMask = afa::obs::parseCategories(trace);
    opts.traceOutPath = cfg.getString("trace_out", "");
    opts.attribution = cfg.getBool("attribution", false);
    p.deviceFastPath = cfg.getBool("device_fastpath", true);
    std::string fault_path = cfg.getString("faults", "");
    if (!fault_path.empty())
        p.faults = std::make_shared<afa::fault::FaultPlan>(
            afa::fault::FaultPlan::parseFile(fault_path));
    if (cfg.getBool("fault_summary", false)) {
        if (!p.faults)
            std::printf("fault plan: none (pass --faults=<file>)\n");
        else
            std::fputs(p.faults->summary().c_str(), stdout);
    }
    // A trace consumer without an explicit category list gets all of
    // them; the Perfetto export additionally needs the raw records.
    if ((!opts.traceOutPath.empty() || opts.attribution) &&
        p.traceMask == 0)
        p.traceMask = afa::obs::kAllCategories;
    p.keepSpans = !opts.traceOutPath.empty();
    p.telemetryWindow = afa::sim::msec(
        static_cast<double>(cfg.getUint("telemetry", 0)));
    opts.telemetryOutPath = cfg.getString("telemetry_out", "");
    opts.telemetryCsvPath = cfg.getString("telemetry_csv", "");
    // A timeline consumer without an explicit window gets the 100 ms
    // default cadence.
    if ((!opts.telemetryOutPath.empty() ||
         !opts.telemetryCsvPath.empty()) &&
        p.telemetryWindow == 0)
        p.telemetryWindow = afa::sim::msec(100);
    return opts;
}

/**
 * parseOptions() for a bench that makes its runs itself instead of
 * executing a RunPlan. --jobs, --seeds and --metrics-json only drive
 * the run-plan machinery, which such a bench never reaches, so they
 * are fatal rather than silently ignored.
 */
inline BenchOptions
parseSingleRunOptions(int argc, char **argv)
{
    BenchOptions opts = parseOptions(argc, argv);
    if (opts.jobs != 1)
        afa::sim::fatal("--jobs %u: %s runs no run plan, so it has no "
                        "runs to spread over workers (run-plan benches "
                        "such as fig12 take --jobs)",
                        opts.jobs, argv[0]);
    if (opts.seeds != 1)
        afa::sim::fatal("--seeds %u: %s does not replicate its runs "
                        "(run-plan benches such as fig12 take --seeds)",
                        opts.seeds, argv[0]);
    if (!opts.metricsJsonPath.empty())
        afa::sim::fatal("--metrics-json %s: %s writes no per-run "
                        "metrics (run-plan benches such as fig12 do)",
                        opts.metricsJsonPath.c_str(), argv[0]);
    return opts;
}

inline void
printTable(const afa::stats::Table &table, bool csv)
{
    if (csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        table.print();
}

/** Results and execution metrics of one figure-bench run plan. */
struct PlanRun
{
    /** One result per planned case, seed replicas merged, in order. */
    std::vector<afa::core::ExperimentResult> results;
    afa::stats::Table metricsTable{{"run"}};
    std::string metricsJson;
    double wallSeconds = 0.0;
    unsigned jobs = 1;
    std::size_t runs = 0;

    /** System metrics merged over every case (empty unless --trace). */
    afa::obs::MetricsSnapshot systemMetrics;

    /** Telemetry timeline merged over every case (empty unless
     *  --telemetry). */
    afa::obs::TelemetryTimeline telemetry;
};

/**
 * Expand @p plan with the --seeds replication, execute it on a
 * --jobs-wide worker pool, and fold the seed replicas of each case
 * back into one result.
 */
inline PlanRun
executePlan(afa::core::RunPlan &plan, const BenchOptions &opts)
{
    plan.seeds(opts.seeds);
    auto descriptors = plan.expand();

    afa::core::ParallelExperimentRunner runner(opts.jobs);
    runner.setProgress(true);
    auto raw = runner.run(descriptors);

    PlanRun out;
    out.jobs = runner.jobs();
    out.runs = descriptors.size();
    out.wallSeconds = runner.suiteWallSeconds();
    out.metricsTable = runner.metricsTable();
    out.metricsJson = runner.metricsJson();
    for (std::size_t base = 0; base < raw.size();
         base += opts.seeds) {
        std::vector<const afa::core::ExperimentResult *> group;
        for (unsigned rep = 0;
             rep < opts.seeds && base + rep < raw.size(); ++rep)
            group.push_back(&raw[base + rep]);
        out.results.push_back(
            afa::core::ParallelExperimentRunner::mergeReplicas(
                group));
        out.systemMetrics.merge(out.results.back().systemMetrics);
        out.telemetry.merge(out.results.back().telemetry);
    }
    return out;
}

/** Write @p text to @p path (binary, whole-file). */
inline bool
writeTextFile(const std::string &path, const std::string &text,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr, "cannot write %s to %s\n", what,
                     path.c_str());
        return false;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

/** Print the per-run metrics block (and write --metrics-json). */
inline void
reportRunMetrics(const PlanRun &run, const BenchOptions &opts)
{
    std::printf("\n=== run metrics: %zu runs, %u workers, %.2f s "
                "wall ===\n",
                run.runs, run.jobs, run.wallSeconds);
    printTable(run.metricsTable, opts.csv);
    if (!run.systemMetrics.empty()) {
        std::printf("\nsystem metrics (summed over %zu runs):\n",
                    run.runs);
        printTable(run.systemMetrics.table(), opts.csv);
    }
    if (!opts.metricsJsonPath.empty()) {
        std::FILE *f = std::fopen(opts.metricsJsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write metrics JSON to %s\n",
                         opts.metricsJsonPath.c_str());
            return;
        }
        // The artifact nests the execution metrics next to the system
        // metrics so one file captures a whole bench invocation.
        std::string json = "{\n\"run_metrics\": ";
        json += run.metricsJson;
        json += ",\n\"system_metrics\": ";
        json += run.systemMetrics.toJson("  ");
        if (!run.telemetry.empty()) {
            json += ",\n\"telemetry\": ";
            json += run.telemetry.toJson("  ");
        }
        json += "\n}\n";
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("run metrics JSON written to %s\n",
                    opts.metricsJsonPath.c_str());
    }
    if (!opts.telemetryOutPath.empty() && !run.telemetry.empty() &&
        writeTextFile(opts.telemetryOutPath,
                      run.telemetry.toJsonLines(), "telemetry JSONL"))
        std::printf("telemetry timeline written to %s\n",
                    opts.telemetryOutPath.c_str());
    if (!opts.telemetryCsvPath.empty() && !run.telemetry.empty() &&
        writeTextFile(opts.telemetryCsvPath, run.telemetry.toCsv(),
                      "telemetry CSV"))
        std::printf("telemetry CSV written to %s\n",
                    opts.telemetryCsvPath.c_str());
}

/** The standard block every figure bench prints. */
inline void
reportFigure(const char *figure, const char *caption,
             const afa::core::ExperimentResult &result,
             const BenchOptions &opts)
{
    std::printf("=== %s: %s ===\n", figure, caption);
    std::fputs(afa::core::describeExperiment(result).c_str(), stdout);
    std::printf("\nlatency envelope across %zu devices (usec):\n",
                result.perDevice.size());
    printTable(afa::core::envelopeTable(result), opts.csv);
    if (opts.perDevice) {
        std::printf("\nper-device ladder (usec):\n");
        printTable(afa::core::perDeviceTable(result), opts.csv);
    }
    if (!result.systemReportText.empty())
        std::printf("\n%s", result.systemReportText.c_str());
    if (opts.attribution && !result.attribution.empty()) {
        std::printf("\nlatency attribution (all runs):\n");
        printTable(result.attribution.table(), opts.csv);
        const auto &m = result.systemMetrics;
        if (!m.empty()) {
            std::printf("fabric: %llu fast-path packets, %llu "
                        "displacements; %llu span drops\n",
                        (unsigned long long)m.counter(
                            "fabric.fast_path_packets"),
                        (unsigned long long)m.counter(
                            "fabric.displacements"),
                        (unsigned long long)result.spanDrops);
            std::printf("nvme: %llu fast-path / %llu fallback "
                        "commands\n",
                        (unsigned long long)m.counter(
                            "nvme.fast_path_commands"),
                        (unsigned long long)m.counter(
                            "nvme.fallback_commands"));
        }
    }
    if (!opts.traceOutPath.empty() && !result.spans.empty()) {
        // Benches reporting several figures overwrite the file; the
        // last figure's timeline wins, matching the common one-figure
        // use of --trace-out. Telemetry windows (when sampled) ride
        // along as counter tracks.
        if (afa::obs::writePerfettoJson(
                opts.traceOutPath, result.spans,
                result.telemetry.empty() ? nullptr
                                         : &result.telemetry))
            std::printf("perfetto trace (%zu spans) written to %s\n",
                        result.spans.size(),
                        opts.traceOutPath.c_str());
    }
    // Like --trace-out, multi-figure benches overwrite: the last
    // reported figure's timeline wins.
    if (!result.telemetry.empty()) {
        if (!opts.telemetryOutPath.empty() &&
            writeTextFile(opts.telemetryOutPath,
                          result.telemetry.toJsonLines(),
                          "telemetry JSONL"))
            std::printf("telemetry timeline written to %s\n",
                        opts.telemetryOutPath.c_str());
        if (!opts.telemetryCsvPath.empty() &&
            writeTextFile(opts.telemetryCsvPath,
                          result.telemetry.toCsv(), "telemetry CSV"))
            std::printf("telemetry CSV written to %s\n",
                        opts.telemetryCsvPath.c_str());
    }
    std::printf("\n");
}

} // namespace afa::bench

#endif // AFA_BENCH_COMMON_HH
