#include "workload/fio_job.hh"

#include <cctype>
#include <limits>
#include <sstream>
#include <vector>

#include "sim/logging.hh"

namespace afa::workload {

RwMode
parseRwMode(const std::string &text)
{
    if (text == "read")
        return RwMode::Read;
    if (text == "write")
        return RwMode::Write;
    if (text == "randread")
        return RwMode::RandRead;
    if (text == "randwrite")
        return RwMode::RandWrite;
    if (text == "randrw")
        return RwMode::RandRw;
    afa::sim::fatal("fio: unknown rw mode '%s'", text.c_str());
}

const char *
rwModeName(RwMode mode)
{
    switch (mode) {
      case RwMode::Read:
        return "read";
      case RwMode::Write:
        return "write";
      case RwMode::RandRead:
        return "randread";
      case RwMode::RandWrite:
        return "randwrite";
      case RwMode::RandRw:
        return "randrw";
    }
    return "?";
}

namespace {

/** Parse fio size spellings: 4096, 4k, 128K, 1m, 2M. */
std::uint64_t
parseSize(const std::string &text, const char *key)
{
    if (text.empty())
        afa::sim::fatal("fio: empty value for %s", key);
    // std::stoull would accept (and wrap) a sign or skip whitespace.
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        afa::sim::fatal("fio: %s must be a non-negative number, got '%s'",
                        key, text.c_str());
    std::size_t idx = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &idx);
    } catch (const std::exception &) {
        afa::sim::fatal("fio: bad size '%s' for %s", text.c_str(), key);
    }
    std::uint64_t mult = 1;
    if (idx < text.size()) {
        char suffix = static_cast<char>(
            std::tolower(static_cast<unsigned char>(text[idx])));
        switch (suffix) {
          case 'k':
            mult = 1024;
            break;
          case 'm':
            mult = 1024ull * 1024;
            break;
          case 'g':
            mult = 1024ull * 1024 * 1024;
            break;
          default:
            afa::sim::fatal("fio: bad size suffix in '%s' for %s",
                            text.c_str(), key);
        }
        if (idx + 1 != text.size())
            afa::sim::fatal("fio: trailing junk in '%s' for %s",
                            text.c_str(), key);
    }
    if (v > std::numeric_limits<std::uint64_t>::max() / mult)
        afa::sim::fatal("fio: %s '%s' out of range", key, text.c_str());
    return v * mult;
}

/** parseSize() bounded to [lo, hi]. */
std::uint64_t
parseBounded(const std::string &text, const char *key, std::uint64_t lo,
             std::uint64_t hi)
{
    const std::uint64_t v = parseSize(text, key);
    if (v < lo || v > hi)
        afa::sim::fatal("fio: %s must be in [%llu, %llu], got '%s'", key,
                        static_cast<unsigned long long>(lo),
                        static_cast<unsigned long long>(hi),
                        text.c_str());
    return v;
}

/** Parse an fio boolean: 0/1/true/false. */
bool
parseBool(const std::string &text, const char *key)
{
    if (text == "1" || text == "true")
        return true;
    if (text == "0" || text == "false")
        return false;
    afa::sim::fatal("fio: %s must be 0, 1, true or false, got '%s'", key,
                    text.c_str());
}

/** Parse fio duration spellings: 120 (seconds), 500ms, 30s, 2m. */
Tick
parseDuration(const std::string &text, const char *key)
{
    if (text.empty() || !(std::isdigit(static_cast<unsigned char>(text[0])) ||
                          text[0] == '.'))
        afa::sim::fatal("fio: %s must be a non-negative duration, got "
                        "'%s'", key, text.c_str());
    std::size_t idx = 0;
    double v = 0.0;
    try {
        v = std::stod(text, &idx);
    } catch (const std::exception &) {
        afa::sim::fatal("fio: bad duration '%s' for %s", text.c_str(),
                        key);
    }
    // Larger values (in any unit) would overflow Tick.
    if (v > 1e8)
        afa::sim::fatal("fio: %s '%s' out of range", key, text.c_str());
    std::string suffix = text.substr(idx);
    if (suffix.empty() || suffix == "s")
        return afa::sim::sec(v);
    if (suffix == "ms")
        return afa::sim::msec(v);
    if (suffix == "us")
        return afa::sim::usec(v);
    if (suffix == "m")
        return afa::sim::sec(v * 60.0);
    afa::sim::fatal("fio: bad duration suffix '%s' for %s",
                    suffix.c_str(), key);
}

} // namespace

FioJob
FioJob::parse(const std::string &spec)
{
    FioJob job;
    // Tokenize: options separate on whitespace or commas, but a comma
    // followed by text without '=' belongs to the previous value
    // (e.g. cpus_allowed=4-19,24-39).
    std::vector<std::string> tokens;
    std::stringstream ws(spec);
    std::string word;
    while (ws >> word) {
        std::stringstream cs(word);
        std::string piece;
        while (std::getline(cs, piece, ',')) {
            if (piece.empty())
                continue;
            if (piece.find('=') == std::string::npos &&
                !tokens.empty())
                tokens.back() += "," + piece;
            else
                tokens.push_back(piece);
        }
    }
    for (const std::string &token : tokens) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            afa::sim::fatal("fio: option '%s' is not key=value",
                            token.c_str());
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        if (key == "name") {
            job.name = value;
        } else if (key == "rw") {
            job.rw = parseRwMode(value);
        } else if (key == "bs") {
            auto size = parseBounded(
                value, "bs", 1, std::numeric_limits<std::uint32_t>::max());
            if (size % 4096 != 0)
                afa::sim::fatal("fio: bs must be a positive multiple "
                                "of 4k, got '%s'",
                                value.c_str());
            job.blockSize = static_cast<std::uint32_t>(size);
        } else if (key == "iodepth") {
            job.ioDepth = static_cast<unsigned>(
                parseBounded(value, "iodepth", 1, 65536));
        } else if (key == "runtime") {
            job.runtime = parseDuration(value, "runtime");
        } else if (key == "rwmixread") {
            job.rwMixRead = static_cast<unsigned>(
                parseBounded(value, "rwmixread", 0, 100));
        } else if (key == "offset") {
            job.offsetBlocks = parseSize(value, "offset") / 4096;
        } else if (key == "size") {
            job.sizeBlocks = parseSize(value, "size") / 4096;
        } else if (key == "cpus_allowed") {
            job.cpusAllowed = afa::host::maskFromSet(
                afa::host::parseCpuList(value));
        } else if (key == "rtprio") {
            job.rtPriority = static_cast<int>(
                parseBounded(value, "rtprio", 0, 99));
        } else if (key == "thinktime") {
            job.thinkTime = parseDuration(value, "thinktime");
        } else if (key == "polling" || key == "hipri") {
            job.polling = parseBool(value, key.c_str());
        } else if (key == "direct" || key == "ioengine" ||
                   key == "group_reporting" || key == "numjobs") {
            // Accepted-and-ignored fio options: the model is always
            // direct async I/O on raw devices.
        } else {
            afa::sim::fatal("fio: unknown option '%s'", key.c_str());
        }
    }
    return job;
}

} // namespace afa::workload
