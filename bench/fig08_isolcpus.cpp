/**
 * @file
 * Fig. 8: latency distributions after the Section IV-C boot options
 * (isolcpus, nohz_full, rcu_nocbs, processor.max_cstate=1,
 * idle=poll) on top of chrt. Expected: tighter distributions than
 * Fig. 7; per-SSD divergence from IRQ misplacement remains.
 */

#include "common.hh"

int
main(int argc, char **argv)
{
    auto opts = afa::bench::parseSingleRunOptions(argc, argv);
    opts.params.profile = afa::core::TuningProfile::Isolcpus;
    auto result = afa::core::ExperimentRunner::run(opts.params);
    afa::bench::reportFigure("Fig. 8", "after setting CPU isolation",
                             result, opts);
    return 0;
}
