/**
 * @file
 * Host-speed calibration for the timed metrics.
 *
 * The benchmark runs on shared machines whose speed drifts by tens of
 * percent over seconds as neighbours load the same physical cores.
 * Every timed slice is therefore followed by a short burst of a fixed
 * reference loop, and the host times of a repetition, its slices and
 * its set-up, are multiplied by (kReferenceNs / median burst time) ^
 * kExponent: estimates of the times on a host where the loop runs at
 * its reference speed. The loop is benchmark-owned code that no change
 * to the simulator touches, so a simulator speed-up moves the
 * calibrated figures by its full amount while a host slow-down largely
 * cancels.
 *
 * The loop calls 1024 distinct small functions in random order, so
 * like the simulator it is bound by instruction fetch and branch
 * prediction rather than by arithmetic or memory. A burst runs the
 * loop twice and times only the second pass: the first pass refills
 * the caches with the loop's own code and data, so the timed pass
 * barely depends on what the slice before it left there, and a change
 * to the simulator's footprint does not move the factor. Measured with
 * every other slice followed by 16 MiB of cache pollution: a single
 * pass timed right after the slice rose by 12% on aged_mixed_gc, the
 * warm second pass by 1%, against 0.2% for an unpolluted control. The
 * cold first pass is also about a quarter slower than the warm one.
 *
 * The exponent is measured: the simulator slows more than the loop.
 * Regressing the log of per-repetition median slice time on the log
 * of burst time, over 90 s of drifting host load per workload, gave
 * slopes of 1.9 to 2.4 on the four workloads, and exponent 2 cut the
 * log-spread of per-repetition slice time from 0.19-0.22 raw to
 * 0.07-0.09. Set-up follows the same law over longer drifts: when the
 * host went from quiet to loaded between two sets of runs, raw set-up
 * and slice times on fig06 both grew as the burst time to the power
 * 1.8-1.9. Loops that tracked worse: eight independent xorshift
 * streams, pointer chases over 1 to 64 MiB, a miniature std::function
 * event loop, and a 4096-function variant of this one. The
 * uncalibrated figure is reported beside the calibrated one.
 */

#ifndef PERFBENCH_CALIBRATION_HH
#define PERFBENCH_CALIBRATION_HH

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibrator
{
  public:
    /** Host ns of one timed pass on the reference host. */
    static constexpr double kReferenceNs = 300'000.0;
    /** How much more the simulator slows than the loop (see above). */
    static constexpr double kExponent = 2.0;

    /**
     * Run one burst, a warm-up pass and a timed pass (about 0.3 ms
     * each); returns the timed pass's host ns.
     */
    double burst();

    /**
     * Factor that maps host time measured alongside @p bursts (each
     * a burst() result) to reference-host time:
     * (kReferenceNs / their median) ^ kExponent.
     */
    static double factor(std::vector<double> bursts);

  private:
    /** One untimed pass of the loop. */
    void pass();

    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    std::uint64_t acc = 7;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATION_HH
