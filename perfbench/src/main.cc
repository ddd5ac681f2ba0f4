/**
 * @file
 * AFASim's benchmark harness: host time per simulated IO on four
 * all-flash-array workloads, with per-layer attribution.
 *
 * Usage:
 *   afa_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--references FILE]
 *   afa_perfbench --selftest --workload NAME|all --seed N
 *                 [--references FILE]
 *   afa_perfbench --digest --workload NAME --seed N
 *
 * A measurement run rebuilds the workload from scratch again and
 * again at the same seed until --seconds of wall time are used. The
 * first repetition runs Simulator::run() in one call; the others time
 * it over fixed simulated-time slices with the thread's CPU clock,
 * calibrated for host speed (calibration.hh). Every repetition must
 * produce the same model digest (and the committed reference, when
 * the seed has one) and the same implementation digest, so slicing is
 * proven not to perturb the model on every run. --trace 1 spends half
 * the time on untraced repetitions and half on traced ones (timing
 * interposer plus span log), then replays each layer standalone, and
 * reports the per-layer metrics.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed and the metrics of the chosen mode.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "calibration.hh"
#include "clock.hh"
#include "obs/metrics.hh"
#include "replay.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Quantile with linear interpolation (numpy's default method). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    bool digestOnly = false;
    std::string references;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "afa_perfbench: %s\n"
                 "usage: afa_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--references FILE]\n"
                 "       afa_perfbench --selftest --workload NAME|all "
                 "--seed N [--references FILE]\n"
                 "       afa_perfbench --digest --workload NAME "
                 "--seed N\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage(("bad value for " + flag + ": '" + text + "'").c_str());
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = value();
        } else if (arg == "--seed") {
            o.seed = parseUint(arg, value());
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUint(arg, value()));
            if (o.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (arg == "--references") {
            o.references = value();
        } else if (arg == "--selftest") {
            o.selftest = true;
        } else if (arg == "--digest") {
            o.digestOnly = true;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (o.workload != "all" && !findWorkload(o.workload))
        usage(("unknown workload " + o.workload).c_str());
    if (o.workload == "all" && !o.selftest)
        usage("--workload all is only valid with --selftest");
    return o;
}

/** Committed digests: "<workload> <seed> <hex>" per line. */
std::map<std::pair<std::string, std::uint64_t>, std::string>
loadReferences(const std::string &path)
{
    std::map<std::pair<std::string, std::uint64_t>, std::string> refs;
    if (path.empty())
        return refs;
    std::ifstream in(path);
    if (!in)
        afa::sim::fatal("afa_perfbench: cannot read %s", path.c_str());
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string name, hex;
        std::uint64_t seed = 0;
        if (!(ls >> name >> seed >> hex))
            afa::sim::fatal("afa_perfbench: bad reference line '%s'",
                            line.c_str());
        refs[{name, seed}] = hex;
    }
    return refs;
}

/** One repetition: build, run (sliced or not), drain, read back. */
struct Rep
{
    /** Host CPU time from Simulator construction to start(),
     *  calibrated (see calibration.hh). */
    double setupS = 0.0;
    /** Calibrated host ns per IO of each timed slice with IOs. */
    std::vector<double> sliceNsPerIo;
    /** The same, uncalibrated. */
    std::vector<double> rawSliceNsPerIo;
    std::vector<double> pending; ///< queue depth at slice ends
    Outcome out;
};

Rep
runRep(const WorkloadDef &def, std::uint64_t seed, bool sliced,
       bool traced, Calibrator &cal)
{
    Rep rep;
    const std::uint64_t t0 = threadCpuNs();
    auto inst = build(def, seed, traced);
    const double setup_ns = static_cast<double>(threadCpuNs() - t0);
    std::vector<double> bursts;
    if (sliced) {
        std::uint64_t ios = inst->completedIos();
        for (Tick end = def.slice; end <= def.duration;
             end += def.slice) {
            const std::uint64_t s0 = threadCpuNs();
            inst->sim->run(end);
            const std::uint64_t ns = threadCpuNs() - s0;
            const std::uint64_t now_ios = inst->completedIos();
            if (now_ios > ios)
                rep.rawSliceNsPerIo.push_back(
                    static_cast<double>(ns) /
                    static_cast<double>(now_ios - ios));
            rep.pending.push_back(
                static_cast<double>(inst->sim->pendingEvents()));
            ios = now_ios;
            bursts.push_back(cal.burst());
        }
    } else {
        for (int i = 0; i < 5; ++i)
            bursts.push_back(cal.burst());
    }
    const double factor = Calibrator::factor(std::move(bursts));
    rep.setupS = setup_ns / 1e9 * factor;
    for (double raw : rep.rawSliceNsPerIo)
        rep.sliceNsPerIo.push_back(raw * factor);
    finish(*inst);
    rep.out = conclude(*inst);
    // Hand the freed heap back to the kernel so that every
    // repetition's set-up pays for fresh memory, as a new process does.
    inst.reset();
    malloc_trim(0);
    return rep;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printTable(const char *title, const std::vector<Metric> &metrics)
{
    std::printf("\n%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
jsonResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::string out = afa::sim::strfmt(
        "{\"correct\": %s, \"attempted\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"metrics\": {",
        correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        out += afa::sim::strfmt(
            "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
            i ? ", " : "", metrics[i].name.c_str(), v,
            metrics[i].unit.c_str());
    }
    out += "}}";
    return out;
}

/** Per-layer metrics of one workload (trace mode). */
std::vector<Metric>
layerMetrics(const WorkloadDef &def, const Outcome &base,
             const Outcome &traced, double pending_p50,
             double raw_ns_per_io, double untraced_ns_per_io,
             double traced_ns_per_io, const ReplayCosts &rc)
{
    auto c = [&base](const char *name) {
        return static_cast<double>(base.metrics.counter(name));
    };
    const double ios = static_cast<double>(base.ios);
    const double sim_ticks = static_cast<double>(base.simEnd);
    const double model_per_io =
        ratio(static_cast<double>(base.modelEvents), ios);
    const double plumbing_per_io =
        ratio(static_cast<double>(base.plumbingEvents), ios);

    const afa::obs::Attribution &attr = traced.attribution;
    auto mean_us = [&attr](afa::obs::Stage s) {
        return attr.stage(s).meanTicks() / 1e3;
    };
    const TimingCounters &te = traced.timing;

    const double dies =
        static_cast<double>(def.nand.totalDies()) * def.ssds;
    const double channels =
        static_cast<double>(def.nand.channels) * def.ssds;
    const double slots_per_page =
        static_cast<double>(def.nand.pageBytes) / 4096.0;

    const double packets = c("fabric.packets");
    const double fast = c("fabric.fast_path_packets");
    const double fallback = c("fabric.fallback_packets");
    const double fast_share = ratio(fast, fast + fallback);
    const double nvme_fast = c("nvme.fast_path_commands");
    const double nvme_fallback = c("nvme.fallback_commands");
    const double reads_per_io = ratio(c("nvme.reads_completed"), ios);
    const double writes_per_io = ratio(c("nvme.writes_completed"), ios);
    const double switches_per_io = ratio(c("sched.switches"), ios);
    const double packets_per_io = ratio(packets, ios);
    const double replay_packet = fast_share * rc.packetIdle +
        (1.0 - fast_share) * rc.packetContended;
    // Layers whose replays are disjoint: the controller replay pays
    // its own FTL/NAND work, and every replay pays its own pops.
    const double explained = packets_per_io * replay_packet +
        reads_per_io * rc.readCommand + writes_per_io * rc.writeCommand +
        switches_per_io * rc.schedSwitch;

    using afa::obs::Stage;
    return {
        {"sim.model_events_per_io", model_per_io, "1/io"},
        {"sim.plumbing_events_per_io", plumbing_per_io, "1/io"},
        {"sim.host_ns_per_pop",
         ratio(raw_ns_per_io, model_per_io + plumbing_per_io),
         "ns"},
        {"sim.pending_events_p50", pending_p50, "count"},
        {"sim.replay_ns_per_pop", rc.eventPop, "ns"},
        {"sim.raw_host_ns_per_io", raw_ns_per_io, "ns"},
        {"sim.unattributed_ns_per_io", raw_ns_per_io - explained, "ns"},
        {"workload.reap_host_ns",
         ratio(static_cast<double>(te.completionNs),
               static_cast<double>(te.completions)),
         "ns"},
        {"workload.submit_lag_us_p99",
         static_cast<double>(
             attr.stage(Stage::SubmitQueue).approxQuantileTicks(0.99)) /
             1e3,
         "us"},
        {"workload.sim_lat_max_us",
         static_cast<double>(base.latency.max()) / 1e3, "us"},
        {"workload.dropped", static_cast<double>(base.dropped), "count"},
        {"workload.final_backlog",
         static_cast<double>(base.finalBacklog), "count"},
        {"core.submit_host_ns",
         ratio(static_cast<double>(te.submitNs),
               static_cast<double>(te.submits)),
         "ns"},
        {"core.driver_timeouts", static_cast<double>(base.driver.timeouts),
         "count"},
        {"core.driver_retries", static_cast<double>(base.driver.retries),
         "count"},
        {"core.driver_aborts", static_cast<double>(base.driver.aborts),
         "count"},
        {"host.switches_per_io", switches_per_io, "1/io"},
        {"host.irq_per_io", ratio(c("irq.delivered"), ios), "1/io"},
        {"host.irq_remote_share",
         ratio(c("irq.remote_deliveries"), c("irq.delivered")), "ratio"},
        {"host.irq_cross_socket_share",
         ratio(c("irq.cross_socket"), c("irq.delivered")), "ratio"},
        {"host.cpu_busy_share",
         ratio(c("sched.busy_ticks"), base.cpus * sim_ticks), "ratio"},
        {"host.sched_wait_us_mean", mean_us(Stage::SchedulerWait), "us"},
        {"host.irq_deliver_us_mean", mean_us(Stage::IrqDeliver), "us"},
        {"host.replay_ns_per_switch", rc.schedSwitch, "ns"},
        {"pcie.packets_per_io", packets_per_io, "1/io"},
        {"pcie.fast_path_share", fast_share, "ratio"},
        {"pcie.queue_delay_ns_per_packet",
         ratio(c("fabric.queue_delay_ticks"), packets), "ns"},
        {"pcie.submit_us_mean", mean_us(Stage::FabricSubmit), "us"},
        {"pcie.complete_us_mean", mean_us(Stage::FabricComplete), "us"},
        {"pcie.replay_ns_per_packet_idle", rc.packetIdle, "ns"},
        {"pcie.replay_ns_per_packet_contended", rc.packetContended,
         "ns"},
        {"nvme.fast_path_share",
         ratio(nvme_fast, nvme_fast + nvme_fallback), "ratio"},
        {"nvme.controller_queue_us_mean",
         mean_us(Stage::ControllerQueue), "us"},
        {"nvme.smart_stall_us", c("nvme.smart_stall_ticks") / 1e3, "us"},
        {"nvme.xfer_us_mean", mean_us(Stage::DeviceXfer), "us"},
        {"nvme.replay_ns_per_read", rc.readCommand, "ns"},
        {"nvme.replay_ns_per_write", rc.writeCommand, "ns"},
        {"nand.reads_per_io", ratio(c("nand.reads"), ios), "1/io"},
        {"nand.programs_per_io", ratio(c("nand.programs"), ios), "1/io"},
        {"nand.erases", c("nand.erases"), "count"},
        {"ftl.gc_runs", c("ftl.gc_runs"), "count"},
        {"ftl.write_amplification",
         ratio(static_cast<double>(base.ftlPrograms) * slots_per_page,
               c("ftl.host_writes")),
         "ratio"},
        {"nand.die_busy_share",
         ratio(c("nand.die_busy_ticks"), dies * sim_ticks), "ratio"},
        {"nand.channel_busy_share",
         ratio(c("nand.channel_busy_ticks"), channels * sim_ticks),
         "ratio"},
        {"nand.read_us_mean", mean_us(Stage::NandRead), "us"},
        {"nand.replay_ns_per_op", rc.nandOp, "ns"},
        {"raid.member_ios_per_client_io",
         ratio(static_cast<double>(base.memberIos), ios), "1/io"},
        {"raid.degraded_reads", static_cast<double>(base.degradedReads),
         "count"},
        {"raid.rebuild_ms", base.rebuildMs, "ms"},
        {"fault.events_applied", static_cast<double>(base.faultsApplied),
         "count"},
        {"fault.stall_us", c("nvme.fault_stall_ticks") / 1e3, "us"},
        {"fault.retry_wait_us",
         static_cast<double>(attr.stage(Stage::RetryWait).totalTicks) /
             1e3,
         "us"},
        {"obs.trace_overhead_pct",
         (ratio(traced_ns_per_io, untraced_ns_per_io) - 1.0) * 100.0,
         "%"},
        {"obs.span_drops",
         static_cast<double>(traced.spanDrops), "count"},
    };
}

int
selftest(const Options &o)
{
    const auto refs = loadReferences(o.references);
    Calibrator cal;
    bool ok = true;
    for (const WorkloadDef &def : workloads()) {
        if (o.workload != "all" && def.name != o.workload)
            continue;
        const Outcome plain = runRep(def, o.seed, false, false, cal).out;
        const Outcome sliced = runRep(def, o.seed, true, false, cal).out;
        const Outcome traced = runRep(def, o.seed, true, true, cal).out;
        const auto it = refs.find({def.name, o.seed});
        const bool same = plain.digest == sliced.digest &&
            plain.digest == traced.digest &&
            (it == refs.end() || it->second == plain.digest) &&
            plain.implDigest == sliced.implDigest &&
            plain.implDigest == traced.implDigest;
        std::printf("%-20s seed %" PRIu64
                    ": model unsliced %s sliced %s traced %s reference %s"
                    "; implementation unsliced %s sliced %s traced %s "
                    "-> %s\n",
                    def.name.c_str(), o.seed, plain.digest.c_str(),
                    sliced.digest.c_str(), traced.digest.c_str(),
                    it == refs.end() ? "(none)" : it->second.c_str(),
                    plain.implDigest.c_str(), sliced.implDigest.c_str(),
                    traced.implDigest.c_str(),
                    same ? "same" : "DIFFERENT");
        for (const Outcome *r : {&plain, &sliced, &traced}) {
            for (const auto &g : r->check.guardFailures)
                std::printf("  exercise guard failed: %s\n", g.c_str());
            for (const auto &f : r->check.identityFailures)
                std::printf("  identity failed: %s\n", f.c_str());
            ok = ok && r->check.guardFailures.empty() &&
                r->check.identityFailures.empty();
        }
        ok = ok && same;
    }
    std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
}

int
measure(const Options &o)
{
    const WorkloadDef &def = *findWorkload(o.workload);
    const auto refs = loadReferences(o.references);
    const auto ref_it = refs.find({def.name, o.seed});
    const std::string reference =
        ref_it == refs.end() ? std::string() : ref_it->second;
    Calibrator cal;

    const std::uint64_t start = steadyNs();
    auto elapsed_s = [start] {
        return static_cast<double>(steadyNs() - start) / 1e9;
    };
    // Trace mode splits the budget: untraced repetitions, traced
    // repetitions, then the layer replay (7 layers x 60 ms).
    const double untraced_budget = o.trace ? o.seconds / 2 : o.seconds;
    std::vector<Rep> untraced;
    std::vector<Rep> traced;
    while (untraced.size() < 3 || elapsed_s() < untraced_budget)
        untraced.push_back(
            runRep(def, o.seed, !untraced.empty(), false, cal));
    if (o.trace)
        while (traced.empty() || elapsed_s() < o.seconds - 0.5)
            traced.push_back(runRep(def, o.seed, true, true, cal));

    // Correctness: every repetition's model digest matches the
    // reference, or (for a seed without one) the first repetition's;
    // its implementation digest matches the first repetition's.
    const Outcome &first = untraced.front().out;
    const std::string &expect =
        reference.empty() ? first.digest : reference;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    auto account = [&](const Outcome &r, const char *kind) {
        attempted += r.check.attempted;
        std::uint64_t lost = r.check.lost;
        if (r.digest != expect) {
            lost = r.check.attempted;
            problems.push_back(afa::sim::strfmt(
                "%s repetition model digest %s != expected %s", kind,
                r.digest.c_str(), expect.c_str()));
        }
        if (r.implDigest != first.implDigest) {
            lost = r.check.attempted;
            problems.push_back(afa::sim::strfmt(
                "%s repetition implementation digest %s != first "
                "repetition's %s",
                kind, r.implDigest.c_str(), first.implDigest.c_str()));
        }
        failed += std::min(lost, r.check.attempted);
        for (const auto &f : r.check.identityFailures)
            problems.push_back(std::string("identity: ") + f);
        for (const auto &g : r.check.guardFailures)
            problems.push_back(std::string("exercise guard: ") + g);
    };
    for (const Rep &r : untraced)
        account(r.out, "untraced");
    for (const Rep &r : traced)
        account(r.out, "traced");
    std::sort(problems.begin(), problems.end());
    problems.erase(std::unique(problems.begin(), problems.end()),
                   problems.end());
    const bool correct = problems.empty();

    std::vector<double> slices, raw_slices, setups, traced_slices;
    for (const Rep &r : untraced) {
        slices.insert(slices.end(), r.sliceNsPerIo.begin(),
                      r.sliceNsPerIo.end());
        raw_slices.insert(raw_slices.end(), r.rawSliceNsPerIo.begin(),
                          r.rawSliceNsPerIo.end());
        setups.push_back(r.setupS);
    }
    for (const Rep &r : traced)
        traced_slices.insert(traced_slices.end(), r.sliceNsPerIo.begin(),
                             r.sliceNsPerIo.end());

    const double ns_per_io = quantile(slices, 0.5);
    const auto us = [](Tick t) { return static_cast<double>(t) / 1e3; };
    const std::vector<Metric> e2e = {
        {"host_ns_per_io", ns_per_io, "ns"},
        {"host_ns_per_io_p90", quantile(slices, 0.9), "ns"},
        {"setup_s", quantile(setups, 0.5), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"sim_kiops",
         static_cast<double>(first.measuredIos) /
             afa::sim::toSec(def.duration) / 1e3,
         "kIOPS"},
        {"sim_lat_p50_us", us(first.latency.quantile(0.5)), "us"},
        {"sim_lat_p99_us", us(first.latency.quantile(0.99)), "us"},
        {"sim_lat_p999_us", us(first.latency.quantile(0.999)), "us"},
    };

    std::printf("workload %s seed %" PRIu64 ": %zu untraced + %zu traced "
                "repetitions of %.0f ms simulated, %zu timed slices of "
                "%.1f ms, %.2f s wall\n",
                def.name.c_str(), o.seed, untraced.size(), traced.size(),
                afa::sim::toMsec(def.duration), slices.size(),
                afa::sim::toMsec(def.slice), elapsed_s());
    std::printf("model digest %s: %s\n", first.digest.c_str(),
                reference.empty()
                    ? "no committed reference for this seed, checked "
                      "for repeatability across repetitions"
                    : "checked against the committed reference");
    for (const auto &p : problems)
        std::printf("FAILED CHECK: %s\n", p.c_str());
    std::vector<Metric> shown = e2e;
    shown.push_back({"sim_lat_max_us", us(first.latency.max()), "us"});
    shown.push_back({"failed_op_share",
                     ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "ratio"});
    shown.push_back({"raw_host_ns_per_io", quantile(raw_slices, 0.5),
                     "ns"});
    printTable("end-to-end (tracing off; host times calibrated to the "
               "reference host):",
               shown);

    std::vector<Metric> reported = e2e;
    if (o.trace) {
        // The queue depth comes from the first sliced repetition (the
        // first repetition runs unsliced).
        const double pending_p50 = quantile(untraced[1].pending, 0.5);
        const ReplayCosts rc = replayLayers(
            def, static_cast<std::size_t>(pending_p50), 60'000'000);
        reported = layerMetrics(def, first, traced.front().out,
                                pending_p50, quantile(raw_slices, 0.5),
                                ns_per_io, quantile(traced_slices, 0.5),
                                rc);
        printTable("per-layer (traced run):", reported);
    }
    std::printf("%s\n",
                jsonResult(correct, attempted, failed, reported).c_str());
    return correct ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseOptions(argc, argv);
    if (o.selftest)
        return selftest(o);
    if (o.digestOnly) {
        Calibrator cal;
        const Rep r = runRep(*findWorkload(o.workload), o.seed, false,
                             false, cal);
        std::printf("%s %" PRIu64 " %s\n", o.workload.c_str(), o.seed,
                    r.out.digest.c_str());
        return 0;
    }
    return measure(o);
}
