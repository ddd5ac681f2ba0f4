/**
 * @file
 * Ablation A6: the tail-at-scale motivation of Section I, measured.
 * "One request from a client is divided into multiple I/Os ... even
 * if one SSD out of many shows long tail latency, the entire I/O
 * from the client is delayed by the same amount."
 *
 * A client read is striped across W member SSDs (RAID-0, 4 KiB
 * strips) and completes with the slowest member. Sweeping W under
 * the default and the tuned host shows why the paper's host tuning
 * matters more the wider the array: the client's p99 approaches the
 * members' tail as W grows.
 *
 * With --telemetry W_ms the sweep also prints a windowed view: per
 * tuning profile, one row per sampling window with the client's
 * whole-IO p99 at every stripe width — the SMART-spike windows that
 * a whole-run p99 averages away stand out as rows. The sweep table
 * itself stays byte-identical with telemetry on or off.
 */

#include "common.hh"

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "obs/span_log.hh"
#include "raid/volume.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "workload/fio_thread.hh"

using namespace afa::core;
using afa::sim::Simulator;
using afa::workload::FioJob;
using afa::workload::FioThread;

namespace {

afa::stats::LatencySummary
runClient(const afa::bench::BenchOptions &opts, TuningProfile profile,
          unsigned width,
          afa::obs::TelemetryTimeline *timeline_out = nullptr)
{
    // Per-width simulator seed via a named fork of the experiment
    // seed: additive seed+width arithmetic would make width W at
    // --seed S replay as width W-1 at --seed S+1; the fork keys each
    // width into its own independent stream.
    Simulator sim(afa::sim::Rng(opts.params.seed)
                      .fork(afa::sim::strfmt("tail_at_scale.width%u",
                                             width))
                      .seed());
    AfaSystemParams sys_params;
    sys_params.ssds = width;
    Geometry geometry(afa::host::CpuTopology{}, width);
    TuningConfig tuning = TuningConfig::forProfile(profile, geometry);
    sys_params.kernel = tuning.kernel;
    sys_params.firmware = tuning.firmware;
    sys_params.pinIrqAffinity = tuning.pinIrqAffinity;
    sys_params.firmware.smart.period = opts.params.smartPeriod;
    sys_params.kernel.irq.irqBalanceInterval =
        opts.params.irqBalanceInterval;
    AfaSystem system(sim, sys_params);

    std::vector<unsigned> members;
    for (unsigned d = 0; d < width; ++d)
        members.push_back(d);
    afa::raid::StripedVolume volume(sim, "vol0", system.ioEngine(),
                                    members, 1);

    FioJob job;
    job.rw = afa::workload::RwMode::RandRead;
    job.blockSize = 4096 * width; // one strip per member
    job.runtime = opts.params.runtime;
    job.cpusAllowed = afa::host::CpuMask(1)
        << geometry.fioCpus()[0];
    job.rtPriority = tuning.fioRtPriority;
    job.name = "client";
    FioThread client(sim, "client", system.scheduler(),
                     volume, 0, job);
    // Windowed mode rides an internal span log (the telemetry stage
    // feed); nothing of it reaches the sweep table, which therefore
    // stays byte-identical with telemetry on or off.
    std::unique_ptr<afa::obs::SpanLog> spanLog;
    std::unique_ptr<afa::obs::Telemetry> telemetry;
    if (opts.params.telemetryWindow > 0 && timeline_out != nullptr) {
        afa::obs::TelemetryParams tp;
        tp.window = opts.params.telemetryWindow;
        telemetry = std::make_unique<afa::obs::Telemetry>(tp);
        afa::obs::TraceParams trace;
        trace.mask = afa::obs::kAllCategories;
        spanLog = std::make_unique<afa::obs::SpanLog>(trace);
        system.setSpanLog(spanLog.get());
        client.attachSpanLog(spanLog.get());
        spanLog->setTelemetry(telemetry.get());
        system.attachTelemetry(*telemetry);
    }
    system.start();
    client.start(0);
    if (telemetry)
        telemetry->start(sim);
    sim.run(opts.params.runtime + afa::sim::msec(200));
    if (telemetry) {
        telemetry->finish();
        *timeline_out = telemetry->timeline();
    }
    return afa::stats::LatencySummary::fromHistogram(
        afa::sim::strfmt("stripe-%u", width), client.histogram());
}

} // namespace

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);

    afa::stats::Table table({"config", "width", "client_ios",
                             "avg_us", "p99_us", "p99.9_us",
                             "max_us"});
    const bool windowed = opts.params.telemetryWindow > 0;
    // profile -> width -> windowed timeline (only in --telemetry runs).
    std::map<TuningProfile, std::map<unsigned,
                                     afa::obs::TelemetryTimeline>>
        timelines;
    for (TuningProfile profile :
         {TuningProfile::Default, TuningProfile::IrqAffinity}) {
        for (unsigned width : {1u, 4u, 16u, 64u}) {
            auto s = runClient(opts, profile, width,
                               windowed
                                   ? &timelines[profile][width]
                                   : nullptr);
            table.addRow({tuningProfileName(profile),
                          afa::stats::Table::num(
                              std::uint64_t(width)),
                          afa::stats::Table::num(s.samples),
                          afa::stats::Table::num(s.ladderUs[0], 1),
                          afa::stats::Table::num(s.ladderUs[1], 1),
                          afa::stats::Table::num(s.ladderUs[2], 1),
                          afa::stats::Table::num(s.ladderUs[6], 1)});
        }
    }
    std::printf("=== A6: tail at scale -- striped client reads "
                "(Section I motivation) ===\n");
    afa::bench::printTable(table, opts.csv);
    if (windowed) {
        // The same sweep sliced into sampling windows: one row per
        // window, the client's whole-IO p99 at every stripe width.
        const auto stage_id =
            static_cast<std::uint8_t>(afa::obs::Stage::Complete);
        for (auto &[profile, byWidth] : timelines) {
            std::printf("\nwindowed client p99 (usec), %s profile "
                        "(%.0f ms windows):\n",
                        tuningProfileName(profile),
                        afa::sim::toMsec(
                            opts.params.telemetryWindow));
            std::vector<std::string> cols{"end_ms"};
            for (const auto &[width, tl] : byWidth)
                cols.push_back(afa::sim::strfmt("w%u", width));
            afa::stats::Table wt(cols);
            std::set<std::uint64_t> windows;
            for (const auto &[width, tl] : byWidth)
                for (const auto &[w, row] : tl.stages)
                    if (row.count(stage_id))
                        windows.insert(w);
            for (std::uint64_t w : windows) {
                std::vector<std::string> cells{afa::stats::Table::num(
                    afa::sim::toMsec(
                        (w + 1) * opts.params.telemetryWindow), 0)};
                for (const auto &[width, tl] : byWidth) {
                    std::string text = "-";
                    const auto row = tl.stages.find(w);
                    if (row != tl.stages.end()) {
                        const auto c = row->second.find(stage_id);
                        if (c != row->second.end())
                            text = afa::stats::Table::num(
                                c->second.quantileTicks(0.99) / 1e3,
                                1);
                    }
                    cells.push_back(text);
                }
                wt.addRow(cells);
            }
            afa::bench::printTable(wt, opts.csv);
        }
    }
    std::printf(
        "\nReading: the client completes with the *slowest* of W "
        "members.\nUnder the default kernel the per-member tail is "
        "long, so the\nclient p99 degrades sharply with W and the "
        "max rides the\nmillisecond scheduler tail; on the tuned "
        "host the client tail is\npinned to the SMART ceiling "
        "regardless of W -- the reason AFA\ndeployments must care "
        "about per-SSD tails.\n\nNuance the sweep also exposes: "
        "pinning every vector to the\nsubmitting CPU serialises all "
        "W completion interrupts of a fan-out\nread onto one core "
        "(higher avg at W=64), while irqbalance's\nspreading "
        "parallelises them -- affinity tuning is per-workload, "
        "not\nuniversally optimal.\n");
    return 0;
}
