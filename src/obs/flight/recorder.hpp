// rpkiscope flight recorder: a bounded ring of recent structured events
// (span closes, warn+ log lines, alarms, fleet verdicts, store commits,
// invariant failures, realized crashes) kept so that when something goes
// wrong we still hold the moments *before* it went wrong.
//
// Design:
//  * The ring (obs/ring.hpp, shared with the tracer) is mutex-guarded and
//    bounded: when full the oldest event is overwritten and a drop counter
//    ticks, so a multi-hour soak can keep the recorder on without
//    unbounded growth.
//  * Events carry a recorder-local monotone sequence number and NO wall
//    timestamp: order is the only notion of time. That is what makes a
//    postmortem bundle byte-identical across same-seed runs at any thread
//    count — the recorder never reads a clock, so it cannot observe
//    scheduling.
//  * Determinism-sensitive harnesses (soak, fleet, crash sweep) use a
//    run-local recorder fed only from sequential code; work done on a
//    rc::parallel pool records into per-task recorders that are drained
//    into the run recorder in deterministic (member) order afterwards.
//  * FlightRecorder::global() is the live instance behind /flightz and
//    the fatal-signal postmortem. It is disabled by default (one relaxed
//    load per hook site); tools enable it with --serve / --flight-out.
//    Hook sites tee into it via flightRecord().
//
// The rc_flight_* metric catalogue lives in docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rpkic::obs {

/// Event classes the recorder distinguishes (exposition label values —
/// keep toString() in sync with docs/OBSERVABILITY.md).
enum class FlightKind : std::uint8_t {
    SpanClose,      ///< an obs::Scope with this recorder ended
    LogLine,        ///< a warn-or-worse structured log line
    Alarm,          ///< an RP alarm with its Table-7 class
    FleetVerdict,   ///< a per-member fleet consensus verdict
    StoreCommit,    ///< a durable-store commit (lsn + digest)
    InvariantFail,  ///< an I1–I11 / sweep invariant violation
    CrashRealized,  ///< a chaos crash actually fired
};

inline constexpr std::size_t kFlightKindCount = 7;

std::string_view toString(FlightKind kind);

/// One recorded event. `detail` is free-form deterministic key=value text
/// produced at the hook site.
struct FlightEvent {
    std::uint64_t seq = 0;  ///< recorder-local, monotone from 1
    FlightKind kind = FlightKind::LogLine;
    std::string component;  ///< e.g. "soak", "fleet", "store/rp", "rp"
    std::string detail;
};

/// Bounded ring of FlightEvents plus a stack of currently-open scopes.
/// Thread-safe; see file header for the determinism contract.
class FlightRecorder {
public:
    static constexpr std::size_t kDefaultCapacity = 4096;

    explicit FlightRecorder(std::size_t capacity = kDefaultCapacity, bool enabled = true)
        : enabled_(enabled), ring_(capacity) {}
    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Mirrors event/drop counts into `registry` as rc_flight_* families
    /// (nullptr detaches). Families are registered eagerly so they appear
    /// in dumps even before the first event.
    void attachMetrics(Registry* registry) RC_EXCLUDES(mutex_);

    /// Records one event (no-op while disabled).
    void record(FlightKind kind, std::string component, std::string detail)
        RC_EXCLUDES(mutex_);

    /// Ring capacity in events.
    std::size_t capacity() const { return ring_.capacity(); }
    /// Events currently retained (<= capacity).
    std::size_t size() const { return ring_.size(); }
    /// Events overwritten because the ring was full.
    std::uint64_t dropped() const { return ring_.dropped(); }
    /// Events ever recorded (retained + dropped).
    std::uint64_t totalRecorded() const { return ring_.pushed(); }

    /// Retained events in sequence order.
    std::vector<FlightEvent> snapshot() const { return ring_.snapshot(); }

    /// Retained events in sequence order, clearing the ring (drop counter
    /// kept). Used to merge per-task recorders into a run recorder in
    /// deterministic order after a parallel phase.
    std::vector<FlightEvent> drain() { return ring_.take(); }

    /// Currently-open scopes, outermost first (the "active spans" section
    /// of a postmortem bundle).
    std::vector<std::string> openScopes() const RC_EXCLUDES(mutex_);

    /// Clears events, scopes, and counters (tests).
    void clear() RC_EXCLUDES(mutex_);

    /// The process-wide recorder behind /flightz and the fatal-signal
    /// bundle. Starts disabled.
    static FlightRecorder& global();

private:
    friend class Scope;

    void recordLocked(FlightKind kind, std::string component, std::string detail)
        RC_REQUIRES(mutex_);
    void pushScope(std::string entry) RC_EXCLUDES(mutex_);
    /// Pops "<component> <label>" and records its SpanClose event.
    void popScope(const char* component, std::string label) RC_EXCLUDES(mutex_);

    std::atomic<bool> enabled_;
    BoundedRing<FlightEvent> ring_;
    mutable rc::Mutex mutex_;
    std::vector<std::string> scopes_ RC_GUARDED_BY(mutex_);
    std::array<Counter*, kFlightKindCount> eventCounters_ RC_GUARDED_BY(mutex_){};
    Counter* droppedCounter_ RC_GUARDED_BY(mutex_) = nullptr;
};

/// Records into `local` (when non-null) and tees into the global recorder
/// when that one is enabled. The standard hook-site entry point: run-local
/// determinism and live /flightz visibility from one call.
void flightRecord(FlightRecorder* local, FlightKind kind, const std::string& component,
                  const std::string& detail);

}  // namespace rpkic::obs
