/**
 * @file
 * The two host clocks the harness reads: wall time for run budgets
 * and the interposer, the thread's CPU time for timed sections.
 */

#ifndef PERFBENCH_CLOCK_HH
#define PERFBENCH_CLOCK_HH

#include <time.h>

#include <chrono>
#include <cstdint>

namespace perfbench {

/** Monotonic wall time in ns. */
inline std::uint64_t
steadyNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** CPU time of the calling thread in ns. */
inline std::uint64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000u +
        static_cast<std::uint64_t>(ts.tv_nsec);
}

} // namespace perfbench

#endif // PERFBENCH_CLOCK_HH
