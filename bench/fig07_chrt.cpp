/**
 * @file
 * Fig. 7: latency distributions after `chrt -f 99` on every FIO
 * process. Expected shape: converged vs Fig. 6, worst case dropping
 * from milliseconds to the SMART-stall scale (paper: ~600 us).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::Chrt;
    auto result = afa::core::ExperimentRunner::run(opts.params);
    afa::bench::reportFigure(
        "Fig. 7", "after assigning the highest priority to FIO",
        result, opts);
    return 0;
}
