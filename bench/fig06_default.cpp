/**
 * @file
 * Fig. 6: latency distributions of 64 SSDs under the default Linux
 * configuration. Expected shape: tight up to 4-nines, wide spread
 * from 5-nines, worst case in the milliseconds (paper: ~5 ms).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::Default;
    auto result = afa::core::ExperimentRunner::run(opts.params);
    afa::bench::reportFigure(
        "Fig. 6", "64-SSD latency distributions, default kernel",
        result, opts);
    return 0;
}
