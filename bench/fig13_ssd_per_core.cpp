/**
 * @file
 * Fig. 13 (a-d) + Table II: latency distributions by SSDs per
 * physical CPU core under the tuned (IRQ-affinity) configuration:
 * 4 / 2 / 1 SSDs per physical core and a single FIO thread, split
 * into 1 / 2 / 4 / 64 runs over disjoint SSD sets. Expected: nearly
 * identical distributions, with 4-per-core showing a higher 6-nines.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::IrqAffinity;
    using afa::core::GeometryVariant;

    const std::vector<GeometryVariant> variants = {
        GeometryVariant::FourPerCore, GeometryVariant::TwoPerCore,
        GeometryVariant::OnePerCore, GeometryVariant::SingleThread};

    afa::core::Geometry geometry(
        afa::host::CpuTopology(opts.params.topology),
        opts.params.ssds);
    std::printf("=== Table II: varying number of SSDs / CPU core "
                "===\n");
    afa::bench::printTable(
        afa::core::geometryTable(geometry, variants), opts.csv);
    std::printf("\n");

    const char *fig_names[] = {"Fig. 13(a)", "Fig. 13(b)",
                               "Fig. 13(c)", "Fig. 13(d)"};
    int idx = 0;
    for (GeometryVariant variant : variants) {
        opts.params.variant = variant;
        auto result = afa::core::ExperimentRunner::run(opts.params);
        afa::bench::reportFigure(
            fig_names[idx++],
            afa::core::geometryVariantName(variant), result, opts);
    }
    return 0;
}
