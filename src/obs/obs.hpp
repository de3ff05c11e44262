// rpkiscope umbrella: metrics + tracing + logging, the one instrumentation
// scope, and the hot-path instrumentation macros.
//
// One gate keeps the layer honest about cost: obs::runtimeEnabled() is one
// relaxed atomic load. Scopes' histograms and the RC_OBS_* macros
// short-circuit on it, so an instrumented binary can switch the layer off
// and pay only a predictable branch (bench/obs_overhead measures both
// modes).
//
// The structural metrics (sync telemetry, alarm counts) are NOT behind the
// switch: they are part of the engine's contract (SyncEngine accessors are
// views over them) and cost one counter increment on cold paths. The
// switch guards what sits on hot loops: latency histograms and the
// macro-gated counters.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "obs/clock.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rpkic::obs {

/// Global runtime switch for the gated instrumentation.
bool runtimeEnabled();
void setRuntimeEnabled(bool on);

/// The one RAII instrumentation scope. It reads the clock at most once
/// when it opens and once when it closes, and both reads feed:
///  * a trace span `name` in category `cat`, while the tracer is enabled
///    (a null `name` records no span);
///  * the latency histogram `hist`, while runtimeEnabled() (null: none).
/// Given an enabled `recorder`, the scope also pushes "<cat> <label>" onto
/// the recorder's open-scope stack and records a SpanClose event
/// (component `cat`, detail `label`) when it ends. Every sink is chosen
/// when the scope opens; a moved-from scope records nothing. `name` and
/// `cat` must be string literals: the tracer keeps the pointers.
class Scope {
public:
    /// A latency timer only.
    explicit Scope(Histogram* hist) : Scope(nullptr, "", hist) {}
    Scope(const char* name, const char* cat, Histogram* hist = nullptr,
          FlightRecorder* recorder = nullptr, std::string label = {})
        : Scope(Tracer::global(), name, cat, hist, recorder, std::move(label)) {}
    Scope(Tracer& tracer, const char* name, const char* cat, Histogram* hist = nullptr,
          FlightRecorder* recorder = nullptr, std::string label = {})
        : tracer_(name != nullptr && tracer.enabled() ? &tracer : nullptr),
          hist_(hist != nullptr && runtimeEnabled() ? hist : nullptr),
          recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
          name_(name), cat_(cat), label_(std::move(label)) {
        if (tracer_ != nullptr || hist_ != nullptr) startNanos_ = nowNanos();
        if (recorder_ != nullptr) recorder_->pushScope(std::string(cat_) + " " + label_);
    }
    Scope(Scope&& o) noexcept
        : tracer_(std::exchange(o.tracer_, nullptr)), hist_(std::exchange(o.hist_, nullptr)),
          recorder_(std::exchange(o.recorder_, nullptr)), name_(o.name_), cat_(o.cat_),
          label_(std::move(o.label_)), startNanos_(o.startNanos_) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
        if (recorder_ != nullptr) recorder_->popScope(cat_, std::move(label_));
        if (tracer_ == nullptr && hist_ == nullptr) return;
        const std::uint64_t durNanos = nowNanos() - startNanos_;
        if (tracer_ != nullptr) tracer_->record(name_, cat_, startNanos_, durNanos);
        if (hist_ != nullptr) hist_->observeNanos(durNanos);
    }

private:
    Tracer* tracer_;
    Histogram* hist_;
    FlightRecorder* recorder_;
    const char* name_;
    const char* cat_;
    std::string label_;
    std::uint64_t startNanos_ = 0;
};

}  // namespace rpkic::obs

// --- instrumentation macros -------------------------------------------------

/// Increments a cached Counter& by n when the layer is runtime-enabled.
#define RC_OBS_COUNT(counterRef, n)                          \
    do {                                                     \
        if (::rpkic::obs::runtimeEnabled()) (counterRef).inc(n); \
    } while (0)

/// Observes a value into a cached Histogram& when runtime-enabled.
#define RC_OBS_OBSERVE(histRef, v)                                 \
    do {                                                           \
        if (::rpkic::obs::runtimeEnabled()) (histRef).observe(v);  \
    } while (0)
