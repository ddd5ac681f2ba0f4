#include "obs/perfetto.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/telemetry.hh"
#include "sim/logging.hh"
#include "stats/json.hh"

namespace afa::obs {

namespace {

/**
 * ts/dur are microseconds in the trace-event format; ticks are
 * nanoseconds. Three decimals represent any integer nanosecond count
 * exactly, so traces round-trip without float fuzz.
 */
std::string
usec(Tick ticks)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu.%03u",
                  (unsigned long long)(ticks / 1000),
                  (unsigned)(ticks % 1000));
    return buf;
}

std::string
flagNames(std::uint8_t flags)
{
    std::string out;
    auto add = [&out](const char *name) {
        if (!out.empty())
            out += '|';
        out += name;
    };
    if (flags & kSpanFlagFastPath)
        add("fast_path");
    if (flags & kSpanFlagSelf)
        add("self");
    if (flags & kSpanFlagRemote)
        add("remote");
    return out;
}

} // namespace

std::string
perfettoJson(const std::vector<SpanRecord> &spans,
             const TelemetryTimeline *telemetry)
{
    // Metadata first: one named thread per distinct track, sorted so
    // the document is deterministic regardless of span order.
    std::vector<std::uint16_t> tracks;
    tracks.reserve(spans.size());
    for (const SpanRecord &s : spans)
        tracks.push_back(s.track);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()),
                 tracks.end());

    std::string json = "{\n  \"displayTimeUnit\": \"ns\",\n"
                       "  \"traceEvents\": [\n";
    bool first = true;
    auto emit = [&json, &first](const std::string &event) {
        if (!first)
            json += ",\n";
        first = false;
        json += "    " + event;
    };

    for (std::uint16_t track : tracks)
        emit(afa::sim::strfmt(
            "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, "
            "\"name\": \"thread_name\", "
            "\"args\": {\"name\": \"%s\"}}",
            track,
            afa::stats::jsonEscape(trackName(track)).c_str()));

    for (const SpanRecord &s : spans) {
        std::string args = afa::sim::strfmt(
            "{\"io\": %llu", (unsigned long long)s.io);
        if (s.flags)
            args += afa::sim::strfmt(
                ", \"flags\": \"%s\"", flagNames(s.flags).c_str());
        if (s.arg)
            args += afa::sim::strfmt(", \"arg\": %u", s.arg);
        args += "}";
        emit(afa::sim::strfmt(
            "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
            "\"cat\": \"%s\", \"name\": \"%s\", "
            "\"ts\": %s, \"dur\": %s, \"args\": %s}",
            s.track, categoryName(categoryOf(s.stageId())),
            stageName(s.stageId()), usec(s.begin).c_str(),
            usec(s.duration()).c_str(), args.c_str()));
    }

    if (telemetry != nullptr && !telemetry->empty() &&
        telemetry->window != 0) {
        const Tick window = telemetry->window;
        // Counter samples summarise [w*W, (w+1)*W); stamp them at the
        // window end so the track steps where the window closes.
        auto end_ts = [window](std::uint64_t w) {
            return usec((Tick(w) + 1) * window);
        };

        for (const auto &[name, series] : telemetry->series) {
            const std::string track =
                afa::stats::jsonEscape(name);
            for (const auto &[w, point] : series.points) {
                std::string value =
                    series.kind == MetricKind::Gauge
                        ? afa::sim::strfmt("%g", point.value)
                        : afa::sim::strfmt(
                              "%llu",
                              (unsigned long long)point.delta);
                emit(afa::sim::strfmt(
                    "{\"ph\": \"C\", \"pid\": 1, \"name\": \"%s\", "
                    "\"ts\": %s, \"args\": {\"value\": %s}}",
                    track.c_str(), end_ts(w).c_str(),
                    value.c_str()));
            }
        }

        for (const auto &[w, row] : telemetry->stages) {
            for (const auto &[stage_id, cell] : row) {
                const char *stage =
                    stageName(static_cast<Stage>(stage_id));
                emit(afa::sim::strfmt(
                    "{\"ph\": \"C\", \"pid\": 1, "
                    "\"name\": \"stage.%s.ops\", "
                    "\"ts\": %s, \"args\": {\"value\": %llu}}",
                    stage, end_ts(w).c_str(),
                    (unsigned long long)cell.count));
                emit(afa::sim::strfmt(
                    "{\"ph\": \"C\", \"pid\": 1, "
                    "\"name\": \"stage.%s.p99_us\", "
                    "\"ts\": %s, \"args\": {\"value\": %s}}",
                    stage, end_ts(w).c_str(),
                    usec(cell.quantileTicks(0.99)).c_str()));
            }
        }
    }

    json += "\n  ]\n}\n";
    return json;
}

bool
writePerfettoJson(const std::string &path,
                  const std::vector<SpanRecord> &spans,
                  const TelemetryTimeline *telemetry)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        afa::sim::warn("perfetto: cannot open '%s' for writing",
                       path.c_str());
        return false;
    }
    out << perfettoJson(spans, telemetry);
    out.close();
    if (!out) {
        afa::sim::warn("perfetto: short write to '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace afa::obs
