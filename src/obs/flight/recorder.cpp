#include "obs/flight/recorder.hpp"

namespace rpkic::obs {

std::string_view toString(FlightKind kind) {
    switch (kind) {
        case FlightKind::SpanClose: return "span-close";
        case FlightKind::LogLine: return "log-line";
        case FlightKind::Alarm: return "alarm";
        case FlightKind::FleetVerdict: return "fleet-verdict";
        case FlightKind::StoreCommit: return "store-commit";
        case FlightKind::InvariantFail: return "invariant-fail";
        case FlightKind::CrashRealized: return "crash-realized";
    }
    return "?";
}

void FlightRecorder::attachMetrics(Registry* registry) {
    rc::LockGuard lock(mutex_);
    if (registry == nullptr) {
        eventCounters_.fill(nullptr);
        droppedCounter_ = nullptr;
        return;
    }
    for (std::size_t i = 0; i < kFlightKindCount; ++i) {
        eventCounters_[i] = &registry->counter(
            "rc_flight_events_total", "Flight-recorder events recorded, by kind",
            {{"kind", std::string(toString(static_cast<FlightKind>(i)))}});
    }
    droppedCounter_ = &registry->counter(
        "rc_flight_dropped_total",
        "Flight-recorder events overwritten because the ring was full");
}

void FlightRecorder::recordLocked(FlightKind kind, std::string component,
                                  std::string detail) {
    FlightEvent ev;
    ev.kind = kind;
    ev.component = std::move(component);
    ev.detail = std::move(detail);
    if (ring_.push(std::move(ev)) && droppedCounter_ != nullptr) droppedCounter_->inc();
    Counter* c = eventCounters_[static_cast<std::size_t>(kind)];
    if (c != nullptr) c->inc();
}

void FlightRecorder::record(FlightKind kind, std::string component, std::string detail) {
    if (!enabled()) return;
    rc::LockGuard lock(mutex_);
    recordLocked(kind, std::move(component), std::move(detail));
}

std::vector<std::string> FlightRecorder::openScopes() const {
    rc::LockGuard lock(mutex_);
    return scopes_;
}

void FlightRecorder::clear() {
    rc::LockGuard lock(mutex_);
    ring_.clear();
    scopes_.clear();
}

void FlightRecorder::pushScope(std::string entry) {
    rc::LockGuard lock(mutex_);
    scopes_.push_back(std::move(entry));
}

void FlightRecorder::popScope(const char* component, std::string label) {
    const std::string entry = std::string(component) + " " + label;
    rc::LockGuard lock(mutex_);
    // Pop by value from the top: scopes normally nest strictly, but a
    // moved scope destroyed out of order must not corrupt the stack.
    for (std::size_t i = scopes_.size(); i > 0; --i) {
        if (scopes_[i - 1] == entry) {
            scopes_.erase(scopes_.begin() + static_cast<std::ptrdiff_t>(i - 1));
            break;
        }
    }
    recordLocked(FlightKind::SpanClose, component, std::move(label));
}

FlightRecorder& FlightRecorder::global() {
    static FlightRecorder instance(FlightRecorder::kDefaultCapacity, /*enabled=*/false);
    return instance;
}

void flightRecord(FlightRecorder* local, FlightKind kind, const std::string& component,
                  const std::string& detail) {
    if (local != nullptr) local->record(kind, component, detail);
    FlightRecorder& g = FlightRecorder::global();
    if (&g != local) g.record(kind, component, detail);
}

}  // namespace rpkic::obs
