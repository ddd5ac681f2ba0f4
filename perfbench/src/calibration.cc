#include "calibration.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "clock.hh"

namespace perfbench {

namespace {

constexpr unsigned kFunctions = 1024;
constexpr unsigned kCallsPerBurst = 8000;

std::uint64_t table[1024];

/** One of kFunctions distinct bodies; N varies shifts and branches. */
template <unsigned N>
__attribute__((noinline)) std::uint64_t
step(std::uint64_t x)
{
    x ^= x << (N % 7 + 5);
    x ^= x >> (N % 5 + 3);
    x += table[(x ^ N) % 1024];
    if ((x >> (N % 11)) & 1)
        x *= 0x9E3779B97F4A7C15ull + N;
    else
        x += N * 31;
    for (unsigned i = 0; i < N % 3 + 1; ++i) {
        x ^= x << 9;
        table[(x + i) % 1024] += x;
    }
    return x;
}

using StepFn = std::uint64_t (*)(std::uint64_t);

template <unsigned... I>
constexpr std::array<StepFn, sizeof...(I)>
makeSteps(std::integer_sequence<unsigned, I...>)
{
    return {&step<I>...};
}

constexpr auto kSteps =
    makeSteps(std::make_integer_sequence<unsigned, kFunctions>{});

} // namespace

void
Calibrator::pass()
{
    for (unsigned i = 0; i < kCallsPerBurst; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        acc = kSteps[state % kFunctions](acc);
    }
}

double
Calibrator::burst()
{
    pass();
    const std::uint64_t t0 = threadCpuNs();
    pass();
    return static_cast<double>(threadCpuNs() - t0);
}

double
Calibrator::factor(std::vector<double> bursts)
{
    if (bursts.empty())
        return 1.0;
    auto mid = bursts.begin() + bursts.size() / 2;
    std::nth_element(bursts.begin(), mid, bursts.end());
    return std::pow(kReferenceNs / *mid, kExponent);
}

} // namespace perfbench
