/**
 * @file
 * Fig. 11: latency distributions with the experimental SSD firmware
 * (SMART data update/save disabled) on top of the fully tuned host.
 * Expected: worst case drops from the SMART-stall scale (~600 us) to
 * tens of microseconds (paper: ~90 us), while the *range* of max
 * latency across SSDs stays wide (per-device firmware hiccups).
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::ExpFirmware;
    auto result = afa::core::ExperimentRunner::run(opts.params);
    afa::bench::reportFigure(
        "Fig. 11", "experimental firmware (SMART disabled)", result,
        opts);
    std::printf("max-latency range across SSDs: %.1f .. %.1f us\n",
                result.aggregate.minUs[6], result.aggregate.maxUs[6]);
    return 0;
}
