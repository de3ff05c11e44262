// The alarm taxonomy of paper Table 7, with the accountable/unaccountable
// distinction of §5.5.
//
// An accountable alarm names a perpetrator and is backed by objects the
// relying party can publish to convince a third party; an unaccountable
// alarm signals missing information whose cause cannot be attributed
// (authority? repository? network?).
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "util/time.hpp"

namespace rpkic::rp {

enum class AlarmType : std::uint8_t {
    MissingInformation,   ///< manifest stale/missing OR logged object missing
    BadKeyRollover,       ///< post-rollover manifest with incorrect procedure
    InvalidSyntax,        ///< authority issued a malformed object
    ChildTooBroad,        ///< authority logged an RC/ROA it does not cover
    UnilateralRevocation, ///< deletion/modification without .dead consent
    GlobalInconsistency,  ///< manifest failed the global consistency check
};

std::string_view toString(AlarmType t);

struct Alarm {
    AlarmType type;
    std::string victim;       ///< URI / filename of the harmed object
    std::string perpetrator;  ///< blamed authority RC URI ("" if unaccountable)
    bool accountable = false;
    std::string detail;
    Time raisedAt = 0;

    std::string str() const;
};

/// Append-only alarm log with query helpers.
///
/// When attached to a metrics registry, every raise() increments
/// rc_alarms_total{entity, class, accountable} — one series per Table-7
/// alarm class and accountability verdict, labelled with the relying
/// party that raised it (see docs/OBSERVABILITY.md).
class AlarmLog {
public:
    /// Routes future raise() calls into rc_alarms_total counters in
    /// `registry`, labelled entity=`entity`. nullptr detaches.
    void attachMetrics(obs::Registry* registry, std::string entity);

    /// Routes future raise() calls into `recorder` as Alarm flight events
    /// (component = the entity given to attachMetrics, detail =
    /// Alarm::str() prefixed with the Table-7 class). nullptr detaches.
    /// Like metrics, restore() never records — a replayed alarm was
    /// already in the ring when first raised.
    void attachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

    void raise(Alarm alarm);

    /// Appends WITHOUT touching metrics. Cache deserialization replays
    /// alarms that were already counted when first raised; counting them
    /// again would double-book the rc_alarms_total series.
    void restore(Alarm alarm) { alarms_.push_back(std::move(alarm)); }

    const std::vector<Alarm>& all() const { return alarms_; }
    std::vector<Alarm> ofType(AlarmType t) const;
    bool has(AlarmType t) const;
    std::size_t count() const { return alarms_.size(); }

private:
    std::vector<Alarm> alarms_;
    obs::Registry* registry_ = nullptr;
    obs::FlightRecorder* recorder_ = nullptr;
    std::string entity_;
    /// Lazily created counters, indexed [alarm type][accountable].
    std::array<std::array<obs::Counter*, 2>, 6> counters_{};
};

}  // namespace rpkic::rp
