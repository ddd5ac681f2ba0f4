/**
 * @file
 * Fig. 10: scatter plot of raw latency samples from 32 SSDs under the
 * tuned (IRQ-affinity) configuration, exposing the periodic SMART
 * spike clusters. The paper logged 32 of the 64 SSDs because
 * per-sample logging on all 64 perturbed the measurement; we keep the
 * same workflow via --scatter-devices.
 *
 * Prints the spike-cluster analysis (count, period, peak) and a
 * strided sample dump suitable for plotting.
 */

#include "common.hh"

#include "sim/config.hh"

int
main(int argc, char **argv)
{
    afa::sim::Config cfg;
    cfg.parseArgs(argc - 1, argv + 1);
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::IrqAffinity;
    opts.params.scatterDevices = static_cast<unsigned>(
        cfg.getUint("scatter_devices", 32));
    auto result = afa::core::ExperimentRunner::run(opts.params);

    afa::bench::reportFigure(
        "Fig. 10", "latency samples from 32 SSDs (SMART spikes)",
        result, opts);

    const auto &scatter = result.scatter;
    auto threshold = afa::sim::usec(
        static_cast<double>(cfg.getUint("spike_threshold_us", 150)));
    auto clusters = scatter.clusters(threshold, afa::sim::msec(50));
    std::printf("raw samples logged: %zu (devices 0-%u)\n",
                scatter.size(), opts.params.scatterDevices - 1);
    std::printf("spike clusters above %.0f us: %zu\n",
                afa::sim::toUsec(threshold), clusters.size());
    afa::stats::Table table({"cluster", "start_ms", "samples",
                             "peak_us", "first_sample_index"});
    for (std::size_t i = 0; i < clusters.size() && i < 20; ++i) {
        const auto &c = clusters[i];
        table.addRow({afa::stats::Table::num(std::uint64_t(i)),
                      afa::stats::Table::num(afa::sim::toMsec(c.start),
                                             1),
                      afa::stats::Table::num(c.samples),
                      afa::stats::Table::num(
                          afa::sim::toUsec(c.peakLatency), 1),
                      afa::stats::Table::num(c.firstIndex)});
    }
    afa::bench::printTable(table, opts.csv);
    auto period = scatter.clusterPeriod(threshold, afa::sim::msec(50));
    std::printf("\nmedian cluster interval: %.1f ms "
                "(configured SMART period: %.1f ms per SSD, %u SSDs "
                "logged)\n",
                afa::sim::toMsec(period),
                afa::sim::toMsec(opts.params.smartPeriod),
                opts.params.scatterDevices);
    if (cfg.getBool("dump_samples", false))
        std::fputs(scatter.toText(100).c_str(), stdout);
    return 0;
}
