// rpkiscope tracing: span-based tracer writing Chrome trace-event JSON.
//
// obs::Scope (obs/obs.hpp) records a completed span as one "X" (complete)
// event in a bounded ring (obs/ring.hpp): when the ring is full the
// oldest events are overwritten and a drop counter ticks, so tracing never
// grows without bound under a long soak. The export (renderChromeTrace) is
// the Trace Event Format that chrome://tracing, Perfetto, and speedscope
// all load.
//
// Timestamps come from obs::timeSource(); install a LogicalTimeSource to
// make traces byte-identical across runs of the same seed.
//
// The tracer is disabled by default (zero instrumentation cost beyond one
// relaxed load per scope); tools enable it when the user asks for
// --trace-out.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/ring.hpp"

namespace rpkic::obs {

/// One completed span ("X" event in Chrome trace-event terms).
struct TraceEvent {
    const char* name = "";  ///< static string (instrumentation literals)
    const char* cat = "";   ///< category, e.g. "sync", "rp", "detector"
    std::uint64_t tsNanos = 0;
    std::uint64_t durNanos = 0;
    std::uint64_t seq = 0;  ///< monotone sequence number from 1
};

class Tracer {
public:
    explicit Tracer(std::size_t capacity = 1 << 16) : ring_(capacity) {}

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Records a completed span (obs::Scope calls this on close).
    void record(const char* name, const char* cat, std::uint64_t tsNanos,
                std::uint64_t durNanos) {
        ring_.push(TraceEvent{name, cat, tsNanos, durNanos});
    }

    /// Ring capacity in events.
    std::size_t capacity() const { return ring_.capacity(); }
    /// Events currently retained (<= capacity).
    std::size_t size() const { return ring_.size(); }
    /// Events overwritten because the ring was full.
    std::uint64_t dropped() const { return ring_.dropped(); }

    /// Retained events in chronological (sequence) order.
    std::vector<TraceEvent> snapshot() const { return ring_.snapshot(); }

    /// Chrome trace-event JSON (the object form with "traceEvents", which
    /// Perfetto and chrome://tracing both accept). Timestamps are emitted
    /// in microseconds with nanosecond precision kept as fractions.
    std::string renderChromeTrace() const;

    /// Clears retained events and the drop counter (tests).
    void clear() { ring_.clear(); }

    /// The process-wide tracer the instrumentation layer uses.
    static Tracer& global();

private:
    std::atomic<bool> enabled_{false};
    BoundedRing<TraceEvent> ring_;
};

}  // namespace rpkic::obs
