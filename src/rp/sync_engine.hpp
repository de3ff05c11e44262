// Resilient sync layer between a SnapshotSource and a RelyingParty.
//
// RelyingParty::sync asks for each level of its walk's publication points
// and gets one answer per point per round. Under delivery faults (paper
// §3.2.2) a single dropped transfer would degrade the relying party to
// stale data and a missing-information alarm. Real relying parties retry.
// The SyncEngine answers the walk, for the points the source lists, with
// the missing transport discipline. A listed point the walk does not reach
// is not fetched; its health and regression floor stay as the last round
// that reached it left them:
//
//  * bounded retry with exponential backoff, per publication point;
//  * a pre-acceptance probe: a fetched point is handed to the relying
//    party only if its manifest decodes AND every object the manifest
//    logs is present with the logged hash AND the manifest number did not
//    regress below what the engine already accepted (Stalloris-style
//    stale serving is refused, not silently ignored). A failed probe is a
//    failed attempt — retried, not escalated;
//  * all-or-nothing delivery: a point that exhausts its retry budget is
//    omitted from the level's answer entirely, so the relying party
//    keeps its retained state (§5.3.2 graceful degradation) and raises
//    exactly the unaccountable missing-information alarms the paper
//    prescribes — never an accountable accusation built from a partial
//    transfer;
//  * per-point health (Healthy / Degraded / Stale / Quarantined) with a
//    reduced attempt budget for quarantined points (a sustained staller
//    cannot consume the full retry budget every round — the Stalloris
//    resource-exhaustion lesson);
//  * telemetry: every counter lives in an obs::Registry (rc_sync_* metric
//    families; see docs/OBSERVABILITY.md), so one Prometheus scrape of the
//    registry shows exactly what the transport discipline did. The
//    PointTelemetry / EngineTotals accessors below return values read
//    from those registry counters on each call.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "rp/relying_party.hpp"
#include "rpki/chaos.hpp"

namespace rpkic::rp {

/// Why a fetch attempt was rejected (telemetry; Ok means accepted).
enum class FetchOutcome : std::uint8_t {
    Ok = 0,
    Unreachable,           ///< source returned nothing
    ManifestMissing,       ///< point answered but withheld manifest.mft
    ManifestUndecodable,   ///< manifest bytes do not parse (corruption)
    LoggedObjectMissing,   ///< manifest logs a file the point did not serve
    LoggedObjectMismatch,  ///< served bytes do not hash to the logged value
    Regressed,             ///< manifest number below an already-accepted one
};

inline constexpr std::size_t kFetchOutcomeCount = 7;

std::string_view toString(FetchOutcome o);

enum class PointHealth : std::uint8_t {
    Healthy,      ///< last round: accepted on the first attempt
    Degraded,     ///< last round: accepted, but only after retries
    Stale,        ///< last round: retry budget exhausted, cache retained
    Quarantined,  ///< persistently failing; attempt budget reduced to 1
};

std::string_view toString(PointHealth h);

struct SyncPolicy {
    /// Upper bound on maxAttempts: keeps the doubling backoff and its
    /// per-point tick sum far from overflow.
    static constexpr std::uint32_t kMaxAttempts = 32;

    /// Fetch attempts per point per round (1 = no retries), in
    /// [1, kMaxAttempts]; SyncEngine's constructor throws UsageError
    /// otherwise. The backoff before retry k (k >= 1) is 2^(k-1) ticks,
    /// accumulated as telemetry (retries happen within one simulated tick;
    /// the cost is accounted, not clocked).
    std::uint32_t maxAttempts = 3;
    /// Consecutive fully-failed rounds before a point is quarantined.
    std::uint32_t quarantineAfter = 3;
};

/// Read-only view of one publication point's telemetry, materialized from
/// the metrics registry (the single source of truth).
struct PointTelemetry {
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    /// Failed attempts inside rounds that ultimately succeeded: faults the
    /// retry discipline absorbed without any alarm.
    std::uint64_t faultsAbsorbed = 0;
    std::uint64_t roundsFailed = 0;     ///< rounds with the budget exhausted
    std::uint64_t roundsDelivered = 0;  ///< rounds the point was accepted
    std::uint32_t consecutiveFailures = 0;
    Duration backoffSpent = 0;
    PointHealth health = PointHealth::Healthy;
    /// Highest manifest number ever accepted (regression floor).
    std::uint64_t highestManifestNumber = 0;
    bool sawManifest = false;
    /// Current stale streak bookkeeping for recovery-time metrics.
    std::uint32_t currentStaleStreak = 0;
    std::uint32_t longestStaleStreak = 0;
    std::uint64_t recoveries = 0;       ///< failures followed by a success
    std::uint64_t recoveryRoundsSum = 0;  ///< total rounds spent failed before recovery
    std::map<FetchOutcome, std::uint64_t> rejections;  ///< by probe outcome
};

/// What one SyncEngine round did.
struct SyncReport {
    std::uint64_t round = 0;
    std::size_t pointsListed = 0;  ///< advertised by the source
    /// Of the listed points the walk reached: accepted, or budget spent.
    std::size_t pointsDelivered = 0;
    std::size_t pointsFailed = 0;
    std::size_t pointsQuarantined = 0;  ///< of those, in quarantine after this round
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t faultsAbsorbed = 0;
    Duration backoffSpent = 0;
    /// Alarms the relying party raised during this round's sync()
    /// (escalations: every one of these is post-retry-budget).
    std::size_t alarmsRaised = 0;
    std::size_t validRoas = 0;
};

/// Aggregate counters across all rounds (sum of per-point telemetry plus
/// engine-level totals), materialized from the registry on access.
struct EngineTotals {
    std::uint64_t rounds = 0;
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t faultsAbsorbed = 0;
    std::uint64_t pointRoundsFailed = 0;
    std::uint64_t alarmsRaised = 0;
    Duration backoffSpent = 0;
};

class DurableStore;

class SyncEngine {
public:
    /// `registry` receives the rc_sync_* metric families, labelled with
    /// the relying party's name; nullptr means obs::Registry::global().
    SyncEngine(RelyingParty& rp, SnapshotSource& source, SyncPolicy policy = {},
               obs::Registry* registry = nullptr);

    /// Attaches a durable store: after every completed round the relying
    /// party's state (its image or the round's delta, as the store asks) is
    /// commit()ted with meta = the completed round number, so
    /// all-or-nothing delivery also holds across process death. nullptr
    /// detaches. The store must outlive the engine, and only this relying
    /// party may commit to it until it is reopened.
    void attachStore(DurableStore* store) { store_ = store; }

    /// Called after every completed round (post store-commit) with the
    /// round number and an immutable handle on the relying party's
    /// post-round ROA state. This is the serving plane's epoch source:
    /// the harness attaches a sink that publishes into an EpochStore,
    /// keeping rp free of any dependency on the serve layer. Runs on the
    /// sync thread; keep it fast.
    using EpochSink =
        std::function<void(std::uint64_t round, std::shared_ptr<const RpkiState> state)>;
    void attachEpochSink(EpochSink sink) { epochSink_ = std::move(sink); }

    /// Continues the round counter of a previous incarnation (fault plans
    /// and snapshot sources key behaviour off the absolute round number, so
    /// a restarted engine must not restart from round 0). Only valid before
    /// the first syncRound() of this engine.
    void resumeAt(std::uint64_t round);

    /// Restores the Stalloris regression floor for one point after a
    /// restart (a fresh engine would otherwise accept a stale manifest the
    /// previous incarnation had already moved past). Harnesses feed this
    /// from the restored relying party's exportManifestClaims().
    void seedRegressionFloor(const std::string& pointUri, std::uint64_t manifestNumber);

    /// Runs one sync round at simulated time `now`: runs the relying
    /// party's walk and answers each level it asks for with the points the
    /// source lists, each fetched with retry/backoff and probed. Never
    /// throws on delivery faults (they are the job); propagates only
    /// programming errors.
    SyncReport syncRound(Time now);

    std::uint64_t round() const { return round_; }
    const RelyingParty& relyingParty() const { return *rp_; }

    PointHealth healthOf(const std::string& pointUri) const;
    /// nullopt for a point the engine has never fetched.
    std::optional<PointTelemetry> telemetryFor(const std::string& pointUri) const;
    std::map<std::string, PointTelemetry> telemetry() const;
    EngineTotals totals() const;

private:
    /// Registry-backed per-point counters (canonical storage) plus the
    /// control state the retry/quarantine policy runs on.
    struct PointState {
        // Control state — drives policy decisions, serialized nowhere.
        std::uint32_t consecutiveFailures = 0;
        PointHealth health = PointHealth::Healthy;
        std::uint64_t highestManifestNumber = 0;
        bool sawManifest = false;
        void raiseFloor(std::uint64_t number) {
            highestManifestNumber = std::max(highestManifestNumber, number);
            sawManifest = true;
        }
        std::uint32_t currentStaleStreak = 0;
        std::uint32_t longestStaleStreak = 0;
        // Canonical counters, owned by the registry.
        obs::Counter* attempts = nullptr;
        obs::Counter* retries = nullptr;
        obs::Counter* faultsAbsorbed = nullptr;
        obs::Counter* roundsFailed = nullptr;
        obs::Counter* roundsDelivered = nullptr;
        obs::Counter* backoffTicks = nullptr;
        obs::Counter* recoveries = nullptr;
        obs::Counter* recoveryRounds = nullptr;
        std::array<obs::Counter*, kFetchOutcomeCount> rejections{};
    };

    /// Fetches one point with the attempt budget, probing each answer, and
    /// updates its health and telemetry; the accepted files, or nullopt
    /// once the budget is spent.
    std::optional<FileMap> deliver(const std::string& pointUri, SyncReport& report);
    /// Validates a fetched FileMap before it may reach the relying party;
    /// on Ok, `*manifestNumber` is the probed manifest's number.
    FetchOutcome probe(const PointState& ps, const std::string& pointUri, const FileMap& files,
                       std::uint64_t* manifestNumber) const;

    PointState& stateFor(const std::string& pointUri);
    obs::Counter& rejectionCounter(PointState& ps, const std::string& pointUri, FetchOutcome o);
    void recordHealthTransition(PointHealth from, PointHealth to);
    /// Sets the health gauges to the points this round reached, by health
    /// class; returns how many of them are quarantined.
    std::size_t publishHealthGauges(const std::array<std::int64_t, 4>& reached);
    PointTelemetry materialize(const PointState& ps) const;

    RelyingParty* rp_;
    SnapshotSource* source_;
    SyncPolicy policy_;
    obs::Registry* registry_;
    DurableStore* store_ = nullptr;
    EpochSink epochSink_;
    std::uint64_t round_ = 0;
    std::map<std::string, PointState> points_;

    // Engine-level instruments.
    obs::Counter* roundsTotal_ = nullptr;
    obs::Counter* alarmsEscalated_ = nullptr;
    obs::Histogram* fetchLatency_ = nullptr;
    std::array<obs::Gauge*, 4> healthGauges_{};  // by PointHealth
    obs::Counter* filesHashed_ = nullptr;
    obs::Counter* filesCompared_ = nullptr;
    obs::Counter* manifestsDecoded_ = nullptr;
};

}  // namespace rpkic::rp
