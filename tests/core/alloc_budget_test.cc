/**
 * @file
 * Allocation budget: once a run has warmed up, simulating an IO must
 * not call the heap allocator. This binary replaces the global
 * operator new/delete with counting versions (which is why it is a
 * test target of its own), warms each shape up, then counts every
 * operator new across a measured window.
 *
 * Pools, rings and queues grow to their peak during the warm-up; a
 * per-IO allocation anywhere on the path (a closure that overflows
 * EventFn's inline buffer, a tree or hash node per enqueue, a
 * std::function that does not fit its inline buffer, a deque block)
 * shows up as a count proportional to the IOs in the window. The
 * runs are exact functions of the seed, so the bound cannot flake.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/afa_system.hh"
#include "core/geometry.hh"
#include "core/tuning.hh"
#include "sim/simulator.hh"
#include "workload/fio_thread.hh"
#include "workload/openloop.hh"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t bytes, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_news.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    const std::size_t rounded = (bytes + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded ? rounded : a))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace afa::core;
using afa::sim::msec;
using afa::sim::Tick;

namespace {

constexpr unsigned kSsds = 8;
constexpr Tick kWarmUp = msec(6);
constexpr Tick kWindowEnd = msec(10);

/** What one measured window saw. */
struct Window
{
    std::uint64_t news = 0;
    std::uint64_t ios = 0;
    Tick length = 0;
};

/** Run @p sim to kWarmUp, then count allocations up to kWindowEnd. */
template <typename CompletedFn>
Window
measure(afa::sim::Simulator &sim, CompletedFn completed)
{
    sim.run(kWarmUp);
    const std::uint64_t ios_before = completed();
    g_news.store(0);
    g_counting.store(true);
    sim.run(kWindowEnd);
    g_counting.store(false);
    Window w;
    w.news = g_news.load();
    w.ios = completed() - ios_before;
    w.length = kWindowEnd - kWarmUp;
    return w;
}

/** The default-host system shape of the event-budget test. */
AfaSystemParams
systemParams(const TuningConfig &tuning)
{
    AfaSystemParams sp;
    sp.ssds = kSsds;
    sp.kernel = tuning.kernel;
    sp.firmware = tuning.firmware;
    sp.pinIrqAffinity = tuning.pinIrqAffinity;
    return sp;
}

void
expectAllocationFree(const Window &w)
{
    ASSERT_GE(w.length, msec(2));
    ASSERT_GE(w.ios, 400u);
    EXPECT_EQ(w.news, 0u)
        << "operator new calls per IO: "
        << static_cast<double>(w.news) / static_cast<double>(w.ios);
}

TEST(AllocBudgetTest, ClosedLoopQd1MakesNoAllocationPerIo)
{
    afa::sim::Simulator sim(1);
    Geometry geometry(afa::host::CpuTopology{}, kSsds);
    const TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::Default, geometry);
    AfaSystem system(sim, systemParams(tuning));

    std::vector<std::unique_ptr<afa::workload::FioThread>> threads;
    const auto runs = geometry.runsFor(GeometryVariant::FourPerCore);
    for (const auto &p : runs.front()) {
        afa::workload::FioJob job;
        job.runtime = msec(12);
        job.cpusAllowed = afa::host::CpuMask(1) << p.cpu;
        job.rtPriority = tuning.fioRtPriority;
        job.name = "fio";
        threads.push_back(std::make_unique<afa::workload::FioThread>(
            sim, "fio", system.scheduler(), system.ioEngine(), p.device,
            job));
    }
    system.start();
    for (auto &t : threads)
        t->start(0);

    const Window w = measure(sim, [&] {
        std::uint64_t n = 0;
        for (const auto &t : threads)
            n += t->stats().completed;
        return n;
    });
    expectAllocationFree(w);
}

TEST(AllocBudgetTest, OpenLoopMakesNoAllocationPerIo)
{
    afa::sim::Simulator sim(1);
    Geometry geometry(afa::host::CpuTopology{}, kSsds);
    const TuningConfig tuning =
        TuningConfig::forProfile(TuningProfile::Default, geometry);
    AfaSystem system(sim, systemParams(tuning));

    afa::workload::OpenLoopParams ol;
    ol.arrival.ratePerSec = 200000.0;
    ol.streams = 4;
    ol.duration = msec(12);
    ol.rtPriority = tuning.fioRtPriority;
    ol.cpus = geometry.fioCpus();
    afa::workload::OpenLoopEngine engine(sim, "openloop",
                                         system.scheduler(),
                                         system.ioEngine(), kSsds, ol);
    system.start();
    engine.start(0);

    const Window w =
        measure(sim, [&] { return engine.totals().completed; });
    expectAllocationFree(w);
}

} // namespace
