#include "fault/fault_plan.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace afa::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::Limp:
        return "limp";
      case FaultKind::Dropout:
        return "dropout";
      case FaultKind::LinkError:
        return "link_error";
      case FaultKind::CtrlStall:
        return "ctrl_stall";
    }
    return "unknown";
}

namespace {

[[noreturn]] void
planError(std::string_view origin, unsigned line, const std::string &what)
{
    afa::sim::fatal("fault plan %.*s:%u: %s",
                    static_cast<int>(origin.size()), origin.data(),
                    line, what.c_str());
}

/** Split a line into whitespace-separated tokens, dropping comments. */
std::vector<std::string>
tokenize(std::string_view line)
{
    std::vector<std::string> out;
    std::string token;
    for (char c : line) {
        if (c == '#')
            break;
        if (c == ' ' || c == '\t' || c == '\r') {
            if (!token.empty())
                out.push_back(std::move(token));
            token.clear();
        } else {
            token.push_back(c);
        }
    }
    if (!token.empty())
        out.push_back(std::move(token));
    return out;
}

/** @p text as a finite, non-negative number; fatal otherwise. */
double
parseNumber(const std::string &text, std::string_view name,
            std::string_view origin, unsigned line)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value < 0)
        planError(origin, line,
                  afa::sim::strfmt("%.*s: expected a finite "
                                   "non-negative number, got '%s'",
                                   static_cast<int>(name.size()),
                                   name.data(), text.c_str()));
    return value;
}

/** @p text as an integer in [0, @p max]; fatal otherwise. */
unsigned
parseCount(const std::string &text, unsigned max, std::string_view name,
           std::string_view origin, unsigned line)
{
    const double value = parseNumber(text, name, origin, line);
    if (value != std::floor(value) || value > max)
        planError(origin, line,
                  afa::sim::strfmt("%.*s: expected an integer in "
                                   "[0, %u], got '%s'",
                                   static_cast<int>(name.size()),
                                   name.data(), max, text.c_str()));
    return static_cast<unsigned>(value);
}

/**
 * Milliseconds of sim time. Capped at a quarter of the clock range,
 * so an onset plus a duration still fits in a Tick.
 */
Tick
parseMsec(const std::string &text, std::string_view name,
          std::string_view origin, unsigned line)
{
    constexpr double kMaxMsec =
        static_cast<double>(afa::sim::kMaxTick / 4) / afa::sim::kMsec;
    const double value = parseNumber(text, name, origin, line);
    if (value > kMaxMsec)
        planError(origin, line,
                  afa::sim::strfmt("%.*s: %s ms is beyond the simulated "
                                   "clock (at most %.0f)",
                                   static_cast<int>(name.size()),
                                   name.data(), text.c_str(), kMaxMsec));
    return afa::sim::msec(value);
}

/**
 * The values of an event line's key=value fields, in @p keys order.
 * Every field must name one of @p keys, each key exactly once.
 */
std::vector<std::string>
eventFields(const std::vector<std::string> &tokens,
            const std::vector<std::string_view> &keys,
            std::string_view origin, unsigned line)
{
    std::vector<std::string> values(keys.size());
    std::vector<bool> seen(keys.size(), false);
    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &t = tokens[i];
        const std::size_t eq = t.find('=');
        if (eq == std::string::npos)
            planError(origin, line,
                      afa::sim::strfmt("'%s' is not a key=value field",
                                       t.c_str()));
        const std::string_view key = std::string_view(t).substr(0, eq);
        const auto it = std::find(keys.begin(), keys.end(), key);
        if (it == keys.end())
            planError(origin, line,
                      afa::sim::strfmt("%s takes no '%.*s=' field",
                                       tokens[0].c_str(),
                                       static_cast<int>(key.size()),
                                       key.data()));
        const std::size_t k = static_cast<std::size_t>(it - keys.begin());
        if (seen[k])
            planError(origin, line,
                      afa::sim::strfmt("duplicate '%.*s=' field",
                                       static_cast<int>(key.size()),
                                       key.data()));
        seen[k] = true;
        values[k] = t.substr(eq + 1);
    }
    for (std::size_t k = 0; k < keys.size(); ++k)
        if (!seen[k])
            planError(origin, line,
                      afa::sim::strfmt("missing %.*s=",
                                       static_cast<int>(keys[k].size()),
                                       keys[k].data()));
    return values;
}

/** Retry backoff doubles per attempt as a shift of a 64-bit Tick. */
constexpr unsigned kMaxRetries = 32;

} // namespace

FaultPlan
FaultPlan::parseText(std::string_view text, std::string_view origin)
{
    FaultPlan plan;
    std::istringstream in{std::string(text)};
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;
        const std::string &verb = tokens[0];
        if (verb == "timeout_ms" || verb == "max_retries" ||
            verb == "retry_backoff_ms") {
            if (tokens.size() != 2)
                planError(origin, lineno, verb + " takes one value");
            if (verb == "timeout_ms")
                plan.nvmeTimeout =
                    parseMsec(tokens[1], verb, origin, lineno);
            else if (verb == "max_retries")
                plan.maxRetries = parseCount(tokens[1], kMaxRetries,
                                             verb, origin, lineno);
            else
                plan.retryBackoff =
                    parseMsec(tokens[1], verb, origin, lineno);
        } else if (verb == "limp" || verb == "dropout" ||
                   verb == "link_error" || verb == "ctrl_stall") {
            FaultEvent ev;
            ev.kind = verb == "limp"       ? FaultKind::Limp
                    : verb == "dropout"    ? FaultKind::Dropout
                    : verb == "link_error" ? FaultKind::LinkError
                                           : FaultKind::CtrlStall;
            std::vector<std::string_view> keys = {"ssd", "at_ms",
                                                  "dur_ms"};
            if (ev.kind == FaultKind::Limp)
                keys.push_back("factor");
            if (ev.kind == FaultKind::LinkError)
                keys.push_back("rate");
            const auto values = eventFields(tokens, keys, origin, lineno);
            ev.ssd = parseCount(values[0],
                                std::numeric_limits<unsigned>::max(),
                                "ssd", origin, lineno);
            ev.at = parseMsec(values[1], "at_ms", origin, lineno);
            ev.duration = parseMsec(values[2], "dur_ms", origin, lineno);
            if (ev.kind == FaultKind::Limp) {
                ev.factor =
                    parseNumber(values[3], "factor", origin, lineno);
                if (ev.factor < 1.0)
                    planError(origin, lineno, "limp factor must be >= 1");
            }
            if (ev.kind == FaultKind::LinkError) {
                ev.rate = parseNumber(values[3], "rate", origin, lineno);
                if (ev.rate >= 1.0)
                    planError(origin, lineno,
                              "link_error rate must be < 1");
            }
            plan.events.push_back(ev);
        } else {
            planError(origin, lineno, "unknown directive");
        }
    }
    // Deterministic application order regardless of spec order.
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.at < b.at;
                     });
    return plan;
}

FaultPlan
FaultPlan::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        afa::sim::fatal("fault plan: cannot open '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseText(text.str(), path);
}

std::string
FaultPlan::summary() const
{
    std::string out = afa::sim::strfmt(
        "fault plan: %zu event(s), timeout %.1f ms, "
        "%u retries, backoff %.1f ms\n",
        events.size(), afa::sim::toMsec(nvmeTimeout), maxRetries,
        afa::sim::toMsec(retryBackoff));
    for (const FaultEvent &ev : events) {
        out += afa::sim::strfmt(
            "  %-10s ssd%u  [%.1f, %.1f) ms", faultKindName(ev.kind),
            ev.ssd, afa::sim::toMsec(ev.at),
            afa::sim::toMsec(ev.at + ev.duration));
        if (ev.kind == FaultKind::Limp)
            out += afa::sim::strfmt("  factor=%.1f", ev.factor);
        if (ev.kind == FaultKind::LinkError)
            out += afa::sim::strfmt("  rate=%.3f", ev.rate);
        out += "\n";
    }
    return out;
}

} // namespace afa::fault
