#include "obs/flight/postmortem.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/errors.hpp"
#include "util/parse.hpp"

namespace rpkic::obs {

namespace {

bool flightKindFromString(std::string_view text, FlightKind* out) {
    for (std::size_t i = 0; i < kFlightKindCount; ++i) {
        const auto kind = static_cast<FlightKind>(i);
        if (text == toString(kind)) {
            *out = kind;
            return true;
        }
    }
    return false;
}

/// Parses "key=<uint>" off the front of `text`; advances past it and one
/// trailing space on success. A value beyond u64 throws ParseError.
bool eatUintField(std::string_view* text, std::string_view key, std::uint64_t* out) {
    const std::string prefix = std::string(key) + "=";
    if (text->substr(0, prefix.size()) != prefix) return false;
    text->remove_prefix(prefix.size());
    const std::size_t digits = std::min(text->find_first_not_of("0123456789"), text->size());
    if (digits == 0) return false;
    *out = parseU64(text->substr(0, digits), std::string(key).c_str());
    text->remove_prefix(digits);
    if (!text->empty() && (*text)[0] == ' ') text->remove_prefix(1);
    return true;
}

/// Parses "key=<token>" (token = up to the next space) off the front.
bool eatTokenField(std::string_view* text, std::string_view key, std::string* out) {
    const std::string prefix = std::string(key) + "=";
    if (text->substr(0, prefix.size()) != prefix) return false;
    text->remove_prefix(prefix.size());
    const std::size_t end = text->find(' ');
    *out = std::string(text->substr(0, end));
    text->remove_prefix(end == std::string_view::npos ? text->size() : end + 1);
    return true;
}

}  // namespace

std::string renderFlightEvents(const std::vector<FlightEvent>& events) {
    std::string out;
    for (const FlightEvent& ev : events) {
        out += "evt: seq=" + std::to_string(ev.seq) + " kind=" +
               std::string(toString(ev.kind)) + " comp=" + ev.component + " | " + ev.detail +
               "\n";
    }
    return out;
}

std::string buildPostmortem(const FlightRecorder& recorder, const Registry* registry,
                            const std::string& trigger,
                            const std::vector<std::pair<std::string, std::string>>& context) {
    const std::vector<FlightEvent> events = recorder.snapshot();
    const std::vector<std::string> scopes = recorder.openScopes();

    std::string out = "RPKIC-POSTMORTEM v1\n";
    out += "trigger: " + trigger + "\n";
    for (const auto& [key, value] : context) {
        out += "context: " + key + " = " + value + "\n";
    }

    out += "-- scopes open=" + std::to_string(scopes.size()) + " --\n";
    for (const std::string& scope : scopes) {
        out += "scope: " + scope + "\n";
    }

    out += "-- flight events=" + std::to_string(events.size()) +
           " dropped=" + std::to_string(recorder.dropped()) + " --\n";
    out += renderFlightEvents(events);

    std::vector<std::string> rows;
    if (registry != nullptr) {
        const RegistrySnapshot snap = registry->snapshot();
        for (const FamilySnapshot& fam : snap.families) {
            for (const SeriesSnapshot& s : fam.series) {
                // Histograms digest to observation counts only: bucket
                // shapes and sums depend on clock-read interleaving and
                // would break cross-thread-count byte-identity.
                if (fam.kind == MetricKind::Histogram) {
                    rows.push_back(fam.name + "_count" + s.labels + " " +
                                   formatMetricValue(static_cast<double>(s.count)));
                } else {
                    rows.push_back(fam.name + s.labels + " " + formatMetricValue(s.value));
                }
            }
        }
    }
    out += "-- metrics series=" + std::to_string(rows.size()) + " --\n";
    for (const std::string& row : rows) {
        out += row + "\n";
    }
    out += "-- end --\n";
    return out;
}

PostmortemBundle parsePostmortem(const std::string& text) {
    PostmortemBundle bundle;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    auto fail = [&](const std::string& what) -> ParseError {
        return ParseError("postmortem line " + std::to_string(lineNo) + ": " + what);
    };
    auto next = [&](bool required) {
        if (!std::getline(is, line)) {
            if (required) throw fail("unexpected end of bundle");
            return false;
        }
        ++lineNo;
        return true;
    };

    next(true);
    if (line != "RPKIC-POSTMORTEM v1") throw fail("missing magic header");
    next(true);
    if (line.rfind("trigger: ", 0) != 0) throw fail("expected trigger line");
    bundle.trigger = line.substr(9);

    // Context rows until the scopes section header.
    while (next(true)) {
        if (line.rfind("context: ", 0) == 0) {
            const std::string row = line.substr(9);
            const std::size_t sep = row.find(" = ");
            if (sep == std::string::npos) throw fail("context row without ' = '");
            bundle.context.emplace_back(row.substr(0, sep), row.substr(sep + 3));
            continue;
        }
        break;
    }

    std::uint64_t scopeCount = 0;
    {
        std::string_view rest(line);
        if (rest.substr(0, 10) != "-- scopes " ) throw fail("expected scopes section");
        rest.remove_prefix(10);
        if (!eatUintField(&rest, "open", &scopeCount) || rest != "--") {
            throw fail("bad scopes header");
        }
    }
    for (std::uint64_t i = 0; i < scopeCount; ++i) {
        next(true);
        if (line.rfind("scope: ", 0) != 0) throw fail("expected scope row");
        bundle.openScopes.push_back(line.substr(7));
    }

    next(true);
    std::uint64_t eventCount = 0;
    {
        std::string_view rest(line);
        if (rest.substr(0, 10) != "-- flight ") throw fail("expected flight section");
        rest.remove_prefix(10);
        if (!eatUintField(&rest, "events", &eventCount) ||
            !eatUintField(&rest, "dropped", &bundle.droppedEvents) || rest != "--") {
            throw fail("bad flight header");
        }
    }
    for (std::uint64_t i = 0; i < eventCount; ++i) {
        next(true);
        std::string_view rest(line);
        if (rest.substr(0, 5) != "evt: ") throw fail("expected evt row");
        rest.remove_prefix(5);
        FlightEvent ev;
        std::string kindText;
        if (!eatUintField(&rest, "seq", &ev.seq) || !eatTokenField(&rest, "kind", &kindText)) {
            throw fail("bad evt row");
        }
        if (!flightKindFromString(kindText, &ev.kind)) {
            throw fail("unknown event kind '" + kindText + "'");
        }
        // comp=<token up to " | ">, then the free-form detail.
        if (rest.substr(0, 5) != "comp=") throw fail("evt row without comp field");
        rest.remove_prefix(5);
        const std::size_t sep = rest.find(" | ");
        if (sep == std::string_view::npos) throw fail("evt row without detail separator");
        ev.component = std::string(rest.substr(0, sep));
        ev.detail = std::string(rest.substr(sep + 3));
        bundle.events.push_back(std::move(ev));
    }

    next(true);
    std::uint64_t seriesCount = 0;
    {
        std::string_view rest(line);
        if (rest.substr(0, 11) != "-- metrics ") throw fail("expected metrics section");
        rest.remove_prefix(11);
        if (!eatUintField(&rest, "series", &seriesCount) || rest != "--") {
            throw fail("bad metrics header");
        }
    }
    for (std::uint64_t i = 0; i < seriesCount; ++i) {
        next(true);
        if (line.empty() || line[0] == '-') throw fail("expected metric row");
        bundle.metrics.push_back(line);
    }

    next(true);
    if (line != "-- end --") throw fail("missing end marker");
    return bundle;
}

// ---------------------------------------------------------------------------
// Fatal-signal capture

namespace {

std::string& signalBundlePath() {
    static std::string path;
    return path;
}

const char* signalName(int sig) {
    switch (sig) {
        case SIGSEGV: return "SIGSEGV";
        case SIGABRT: return "SIGABRT";
        case SIGBUS: return "SIGBUS";
        case SIGFPE: return "SIGFPE";
        case SIGILL: return "SIGILL";
    }
    return "signal";
}

extern "C" void flightSignalHandler(int sig) {
    // Best-effort: serialize the global recorder + registry and get the
    // bytes on disk before the default disposition takes over. This
    // allocates (not strictly async-signal-safe); if it crashes again the
    // default handler still fires.
    const std::string& path = signalBundlePath();
    if (!path.empty()) {
        const std::string bundle = buildPostmortem(
            FlightRecorder::global(), &Registry::global(), "fatal-signal",
            {{"signal", signalName(sig)}});
        if (std::FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
            std::fwrite(bundle.data(), 1, bundle.size(), f);
            std::fclose(f);
        }
    }
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

}  // namespace

void installFlightSignalHandler(const std::string& path) {
    signalBundlePath() = path;
    const int signals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};
    for (const int sig : signals) {
        std::signal(sig, path.empty() ? SIG_DFL : &flightSignalHandler);
    }
}

}  // namespace rpkic::obs
