/**
 * @file
 * SNIA PTS-E style steady-state check (the methodology the paper
 * follows, Section III-B): rounds of 4 KiB random reads on one SSD
 * with the PTS window/excursion arithmetic. FOB random reads settle
 * immediately -- which is precisely why the paper measures in the FOB
 * state -- and the rounds report shows it.
 */

#include "common.hh"

#include <memory>

#include "sim/logging.hh"
#include "workload/pts.hh"

using namespace afa::core;
using afa::sim::Simulator;

namespace {

constexpr const char *kUsage = R"(Flags:
  --rounds N        measurement rounds (default 8)
  --round-ms M      simulated length of one round (default 250)
  --seed S          root random seed (default 1)
  --csv             emit CSV instead of an aligned table
)";

} // namespace

int
main(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);
    afa::bench::exitOnHelp(cfg, argv[0], kUsage);
    auto rounds = cfg.getUint("rounds", 8);
    auto round_ms = cfg.getUint("round_ms", 250);
    bool csv = cfg.getBool("csv", false);

    Simulator sim(cfg.getUint("seed", 1));
    AfaSystemParams sys_params;
    sys_params.ssds = 1;
    Geometry geometry(afa::host::CpuTopology{}, 1);
    TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::IrqAffinity, geometry);
    sys_params.kernel = tuning.kernel;
    sys_params.firmware = tuning.firmware;
    sys_params.pinIrqAffinity = true;
    sys_params.background = afa::host::BackgroundParams::none();
    AfaSystem system(sim, sys_params);

    afa::workload::FioJob job = afa::workload::FioJob::parse(
        afa::sim::strfmt("rw=randread bs=4k iodepth=1 runtime=%llums",
                         (unsigned long long)round_ms));
    job.cpusAllowed = afa::host::CpuMask(1)
        << geometry.cpuForDevice(0);
    job.rtPriority = tuning.fioRtPriority;

    afa::workload::PtsRunner runner(sim, "pts", system.scheduler(),
                                    system.ioEngine(), 0, job,
                                    rounds);
    system.start();
    runner.start();
    sim.run(afa::sim::msec(
        static_cast<double>((round_ms + 50) * (rounds + 1))));
    if (!runner.finished())
        afa::sim::fatal("PTS rounds did not finish; raise the bound");

    std::printf("=== PTS-E steady-state rounds (1 SSD, FOB, 4k "
                "randread QD1) ===\n");
    afa::stats::Table table(
        {"round", "iops", "mean_us", "p99.9_us"});
    for (std::size_t i = 0; i < runner.rounds().size(); ++i) {
        const auto &round = runner.rounds()[i];
        table.addRow({afa::stats::Table::num(std::uint64_t(i)),
                      afa::stats::Table::num(round.iops, 0),
                      afa::stats::Table::num(round.meanLatencyUs, 2),
                      afa::stats::Table::num(round.p999LatencyUs,
                                             2)});
    }
    if (csv)
        std::fputs(table.toCsv().c_str(), stdout);
    else
        table.print();

    auto iops_ss = runner.iopsSteadyState();
    auto lat_ss = runner.latencySteadyState();
    std::printf("\nsteady state (PTS window=5, excursion 20%%, slope "
                "10%%):\n");
    std::printf("  IOPS   : %s (window avg %.0f, slope %.2f/round)\n",
                iops_ss.steady ? "reached" : "NOT reached",
                iops_ss.windowAverage, iops_ss.windowSlope);
    std::printf("  latency: %s (window avg %.2f us)\n",
                lat_ss.steady ? "reached" : "NOT reached",
                lat_ss.windowAverage);
    return 0;
}
