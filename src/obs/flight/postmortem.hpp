// Postmortem bundles: a deterministic, line-oriented serialization of
// "what the process knew when something went wrong" — the flight-recorder
// ring, the open scopes (active spans), trigger context, and a metrics
// digest — captured whenever a soak/crash-sweep/fleet invariant fails, a
// chaos crash is realized, or a fatal signal arrives.
//
// Determinism contract: a bundle built from a run-local recorder and a
// run-local registry is byte-identical across same-seed runs at every
// thread count. Two deliberate exclusions make that true:
//  * events carry sequence numbers, never wall timestamps;
//  * the metrics digest renders counters and gauges in full but
//    histograms as observation counts only — bucket shapes and sums
//    depend on clock-read interleaving, counts do not.
//
// Nothing parses a bundle back: it is forensic text for a reader, and
// tests assert on its lines.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/flight/recorder.hpp"
#include "obs/metrics.hpp"

namespace rpkic::obs {

/// A bundle captured mid-run, carried out of a harness in its result so
/// the caller (tool, test, CI job) decides where the bytes land.
struct CapturedBundle {
    std::string trigger;  ///< what fired the capture
    std::string label;    ///< deterministic file-name stem ("seed-7-round-12")
    std::string bytes;    ///< the serialized bundle
};

/// Renders flight events as text lines ("evt: seq=... kind=... comp=... | detail").
/// Shared by /flightz and the bundle's flight section.
std::string renderFlightEvents(const std::vector<FlightEvent>& events);

/// Builds the deterministic bundle text from a recorder snapshot plus an
/// optional registry digest. `context` rows are emitted in the given
/// order (put seed/round/member first — they are the forensic headline).
std::string buildPostmortem(const FlightRecorder& recorder, const Registry* registry,
                            const std::string& trigger,
                            const std::vector<std::pair<std::string, std::string>>& context);

/// Installs best-effort fatal-signal handlers (SIGSEGV, SIGABRT, SIGBUS,
/// SIGFPE, SIGILL) that serialize a bundle from the global recorder and
/// registry to `path`, then re-raise with the default disposition. Not
/// async-signal-safe in the strict sense (it allocates) — a last-resort
/// forensic artifact, not a correctness mechanism. Passing "" uninstalls.
void installFlightSignalHandler(const std::string& path);

}  // namespace rpkic::obs
