#include "rp/alarms.hpp"

#include <algorithm>

namespace rpkic::rp {

std::string_view toString(AlarmType t) {
    switch (t) {
        case AlarmType::MissingInformation: return "missing-information";
        case AlarmType::BadKeyRollover: return "bad-key-rollover";
        case AlarmType::InvalidSyntax: return "invalid-syntax";
        case AlarmType::ChildTooBroad: return "child-too-broad";
        case AlarmType::UnilateralRevocation: return "unilateral-revocation";
        case AlarmType::GlobalInconsistency: return "global-inconsistency";
    }
    return "?";
}

std::string Alarm::str() const {
    std::string out = "[t=" + std::to_string(raisedAt) + "] ";
    out += toString(type);
    out += accountable ? " (ACCOUNTABLE" : " (unaccountable";
    if (!perpetrator.empty()) out += ", blames " + perpetrator;
    out += ") victim=" + victim;
    if (!detail.empty()) out += ": " + detail;
    return out;
}

void AlarmLog::attachMetrics(obs::Registry* registry, std::string entity) {
    registry_ = registry;
    entity_ = std::move(entity);
    for (auto& byType : counters_) byType = {nullptr, nullptr};
}

void AlarmLog::raise(Alarm alarm) {
    if (registry_ != nullptr) {
        const auto t = static_cast<std::size_t>(alarm.type);
        const std::size_t acc = alarm.accountable ? 1 : 0;
        obs::Counter*& c = counters_.at(t)[acc];
        if (c == nullptr) {
            c = &registry_->counter(
                "rc_alarms_total",
                "Alarms raised, by Table-7 class and accountability verdict",
                {{"entity", entity_},
                 {"class", std::string(toString(alarm.type))},
                 {"accountable", alarm.accountable ? "true" : "false"}});
        }
        c->inc();
    }
    if (recorder_ != nullptr || obs::FlightRecorder::global().enabled()) {
        obs::flightRecord(recorder_, obs::FlightKind::Alarm,
                          entity_.empty() ? "rp" : entity_,
                          "class=" + std::string(toString(alarm.type)) +
                              (alarm.accountable ? " accountable=true " : " accountable=false ") +
                              alarm.str());
    }
    alarms_.push_back(std::move(alarm));
}

std::vector<Alarm> AlarmLog::ofType(AlarmType t) const {
    std::vector<Alarm> out;
    std::copy_if(alarms_.begin(), alarms_.end(), std::back_inserter(out),
                 [t](const Alarm& a) { return a.type == t; });
    return out;
}

bool AlarmLog::has(AlarmType t) const {
    return std::any_of(alarms_.begin(), alarms_.end(),
                       [t](const Alarm& a) { return a.type == t; });
}

}  // namespace rpkic::rp
