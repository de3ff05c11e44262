#include "obs/trace.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

namespace rpkic::obs {

namespace {

/// Nanoseconds rendered as a decimal microsecond count ("1234.567").
/// Integer arithmetic only: deterministic across platforms.
std::string microsFromNanos(std::uint64_t nanos) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%llu.%03llu",
                  static_cast<unsigned long long>(nanos / 1000),
                  static_cast<unsigned long long>(nanos % 1000));
    return buf;
}

}  // namespace

std::string Tracer::renderChromeTrace() const {
    const std::vector<TraceEvent> events = snapshot();
    std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    for (const TraceEvent& ev : events) {
        if (!first) out += ",";
        first = false;
        out += "\n  {\"name\": \"" + jsonEscape(ev.name) + "\", \"cat\": \"" +
               jsonEscape(ev.cat) + "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": " +
               microsFromNanos(ev.tsNanos) + ", \"dur\": " + microsFromNanos(ev.durNanos) + "}";
    }
    out += "\n]}\n";
    return out;
}

Tracer& Tracer::global() {
    static Tracer instance;
    return instance;
}

}  // namespace rpkic::obs
