#include "obs/flight/postmortem.hpp"

#include <csignal>
#include <cstdio>

namespace rpkic::obs {

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
