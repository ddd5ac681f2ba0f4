/**
 * @file
 * Time-series telemetry: windowed per-stage latency histograms,
 * ACT-style threshold buckets, sampled counter/gauge sources, and
 * the simulator's self-profiling stream.
 *
 * Every end-of-run surface the repo already has (MetricsRegistry
 * snapshots, Attribution totals, Perfetto spans) aggregates a whole
 * run into one number per metric. Telemetry slices the same signals
 * into fixed simulated-time windows (--telemetry=<window_ms>):
 *
 *  - Stage rows: per [w*W, (w+1)*W) window, a log2 duration histogram
 *    per span Stage, fed exactly per record from SpanLog::record()
 *    like the Attribution accumulators — windowed counts stay exact
 *    even when the span ring wraps or drops. Each cell also keeps the
 *    ACT-style exceed counters (ops with duration > 1/2/4/8/... ms),
 *    counted exactly at record time because millisecond thresholds
 *    are not log2-bucket boundaries in ticks.
 *
 *  - Counter/gauge rows: named sources registered by the model
 *    (driver in-flight, fabric packets and displacements, rebuild
 *    progress, ...) sampled at every window boundary and exported as
 *    per-window deltas (counters) or instantaneous values (gauges).
 *
 *  - Sim rows: the Simulator's self-profiling stream
 *    (Simulator::shardStats()): per-shard executed events, mailbox
 *    cross-posts, barrier windows, and barrier wall-stall time.
 *
 * Determinism contract (DESIGN.md §14): sampling happens in events
 * scheduled with internal=true on shard 0, in the highest same-tick
 * ordering band, so
 *  (a) samples never count toward executedEvents()/events-per-IO,
 *  (b) a sample at tick T observes shard-0 state after every model
 *      event of tick T, a rule that is independent of shard count,
 *  (c) every canonical report stays byte-identical with telemetry on
 *      or off at any --shards x --jobs.
 * Registered sources must be shard-0-resident (only mutated by
 * shard-0 events); per-device state is windowed through the stage
 * histograms instead of live sampling. Wall-clock self-profiling
 * fields are diagnostic only and are emitted only when non-zero, so
 * serial timelines are fully deterministic artifacts.
 */

#ifndef AFA_OBS_TELEMETRY_HH
#define AFA_OBS_TELEMETRY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sim/simulator.hh"

namespace afa::obs {

using afa::sim::Tick;

/** ACT-style latency thresholds: 1, 2, 4, ... 128 ms. */
constexpr unsigned kActThresholds = 8;

/** Threshold k in ticks (2^k milliseconds). */
constexpr Tick
actThresholdTicks(unsigned k)
{
    return Tick(1000000) << k;
}

/**
 * One window's histogram of one stage: exact count/total/max, log2
 * duration buckets, and the ACT exceed counters. Commutative adds
 * only, so lane/run/replica merges are order-independent.
 */
struct WindowStageCell
{
    static constexpr unsigned kBuckets = 64;

    std::uint64_t count = 0;
    std::uint64_t totalTicks = 0;
    Tick maxTicks = 0;
    /** buckets[i] counts durations with bit_width(d) == i. */
    std::array<std::uint64_t, kBuckets> buckets{};
    /** exceed[k] counts durations > actThresholdTicks(k). */
    std::array<std::uint64_t, kActThresholds> exceed{};

    void add(Tick duration);
    void merge(const WindowStageCell &other);
    double meanTicks() const;

    /** Windowed quantile, linearly interpolated inside the log2
     *  bucket that holds the target rank. */
    Tick quantileTicks(double q) const;
};

/**
 * The mergeable, plain-data timeline a Telemetry instance produces:
 * per-window stage cells, per-window counter deltas / gauge values,
 * and the per-window simulator self-profile. Merging across lanes,
 * geometry runs and seed replicas is deterministic (maps are
 * key-ordered; all combination rules are commutative).
 */
struct TelemetryTimeline
{
    /** Window length in ticks (0 = disabled/empty). */
    Tick window = 0;

    /** window index -> stage id -> cell. */
    std::map<std::uint64_t, std::map<std::uint8_t, WindowStageCell>>
        stages;

    /** One sampled point of a counter/gauge series. */
    struct Point
    {
        std::uint64_t delta = 0; ///< counter delta over the window
        double value = 0.0;      ///< gauge value at the window end
    };

    /** One registered source's series. */
    struct Series
    {
        MetricKind kind = MetricKind::Counter;
        std::map<std::uint64_t, Point> points;
    };

    /** source name -> series (name-ordered, like MetricsSnapshot). */
    std::map<std::string, Series> series;

    /** The point of series @p name at window @p w, or nullptr. */
    const Point *seriesPoint(const std::string &name,
                             std::uint64_t w) const;

    /** Per-window simulator self-profile (deltas over the window). */
    struct SimWindow
    {
        std::vector<afa::sim::ShardStat> shards;
        std::uint64_t windows = 0;        ///< barrier windows planned
        std::uint64_t mailboxDrained = 0; ///< cross messages enqueued
    };

    /** window index -> self-profile deltas. */
    std::map<std::uint64_t, SimWindow> sim;

    bool empty() const;

    /** Fold another timeline in: stage cells and counter deltas add,
     *  gauges keep the larger value, sim profiles add shard-wise. */
    void merge(const TelemetryTimeline &other);

    /** JSON-lines export: one self-describing object per row, rows
     *  ordered by (window, row kind, stage id / name / shard). */
    std::string toJsonLines() const;

    /** The same rows as one JSON array (for --metrics-json embeds). */
    std::string toJson(const std::string &indent = "") const;

    /** Tidy CSV export (one header, one row per timeline entry). */
    std::string toCsv() const;
};

/** Telemetry construction parameters. */
struct TelemetryParams
{
    /** Sampling window in ticks (0 disables everything). */
    Tick window = 0;

    /** Stage-lane count; must match the Simulator's shard count. */
    unsigned shards = 1;
};

/**
 * The telemetry collector. One instance belongs to one Simulator
 * (like a SpanLog): stage feeds index per-shard lanes, sources are
 * sampled by an internal shard-0 event every window.
 */
class Telemetry
{
  public:
    /** Same-tick ordering band of the sampling events: above every
     *  model band, so a sample at tick T runs after all of T's model
     *  events on shard 0 — at any shard count. */
    static constexpr std::uint32_t kSampleOrderBand = 0xffffffffu;

    explicit Telemetry(const TelemetryParams &params);

    /** True when a non-zero window was configured. */
    bool enabled() const { return windowTicks != 0; }

    /** The sampling window in ticks. */
    Tick window() const { return windowTicks; }

    /**
     * Stage feed, called by SpanLog::record() on the recording
     * shard's thread: bucket @p duration into the window that holds
     * @p end. Never allocates outside a window's first record; never
     * touches another lane.
     */
    void recordSpan(Stage stage, Tick end, Tick duration);

    /**
     * Register a counter source sampled at every window boundary.
     * The callback must read shard-0-resident state only and must be
     * monotonic; rows report the per-window delta.
     */
    void addCounter(const std::string &name,
                    std::function<std::uint64_t()> fn);

    /** Register a gauge source (instantaneous value per window). */
    void addGauge(const std::string &name,
                  std::function<double()> fn);

    /**
     * Begin sampling on @p sim: schedules the first window-boundary
     * event (internal, shard 0, kSampleOrderBand) and arms the
     * self-profiling stream. No-op when disabled.
     */
    void start(afa::sim::Simulator &sim);

    /**
     * Stop sampling: cancels the pending boundary event and takes a
     * final sample covering the trailing partial window. Call after
     * run() returns, from the simulation's owning thread.
     */
    void finish();

    /** Build the mergeable timeline (lanes merged, samples turned
     *  into per-window deltas). Call outside the parallel phase. */
    TelemetryTimeline timeline() const;

  private:
    /** One sampled value of every source at one window boundary. */
    struct SampleRow
    {
        std::vector<std::uint64_t> counters; ///< cumulative values
        std::vector<double> gauges;
        afa::sim::SimProfile profile; ///< cumulative self-profile
    };

    /** One shard's private stage-window map (cache-line padded; the
     *  cached row pointer makes the common same-window record a
     *  single map-free hit — std::map nodes are pointer-stable). */
    struct alignas(64) Lane
    {
        std::uint64_t cachedWindow = ~std::uint64_t{0};
        std::map<std::uint8_t, WindowStageCell> *cachedRow = nullptr;
        std::map<std::uint64_t,
                 std::map<std::uint8_t, WindowStageCell>>
            windows;
    };

    struct Source
    {
        std::string name;
        MetricKind kind = MetricKind::Counter;
        std::function<std::uint64_t()> counterFn;
        std::function<double()> gaugeFn;
    };

    void scheduleSample(Tick when);
    void onSample();
    void sampleWindow(std::uint64_t window_idx);

    Tick windowTicks;
    std::vector<Lane> lanes;
    std::vector<Source> sources;
    /** window index -> cumulative samples (shard 0 only). */
    std::map<std::uint64_t, SampleRow> samples;
    afa::sim::Simulator *simPtr = nullptr;
    afa::sim::EventHandle sampleHandle{};
    bool stopped = false;
};

} // namespace afa::obs

#endif // AFA_OBS_TELEMETRY_HH
