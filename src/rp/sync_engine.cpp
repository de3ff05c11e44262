#include "rp/sync_engine.hpp"

#include <algorithm>

#include "rp/durable_store.hpp"
#include "rp/file_index.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

std::string_view toString(FetchOutcome o) {
    switch (o) {
        case FetchOutcome::Ok: return "ok";
        case FetchOutcome::Unreachable: return "unreachable";
        case FetchOutcome::ManifestMissing: return "manifest-missing";
        case FetchOutcome::ManifestUndecodable: return "manifest-undecodable";
        case FetchOutcome::LoggedObjectMissing: return "logged-object-missing";
        case FetchOutcome::LoggedObjectMismatch: return "logged-object-mismatch";
        case FetchOutcome::Regressed: return "regressed";
    }
    return "?";
}

std::string_view toString(PointHealth h) {
    switch (h) {
        case PointHealth::Healthy: return "healthy";
        case PointHealth::Degraded: return "degraded";
        case PointHealth::Stale: return "stale";
        case PointHealth::Quarantined: return "quarantined";
    }
    return "?";
}

SyncEngine::SyncEngine(RelyingParty& rp, SnapshotSource& source, SyncPolicy policy,
                       obs::Registry* registry)
    : rp_(&rp),
      source_(&source),
      policy_(policy),
      registry_(registry != nullptr ? registry : &obs::Registry::global()) {
    if (policy_.maxAttempts < 1 || policy_.maxAttempts > SyncPolicy::kMaxAttempts) {
        throw UsageError("sync attempts per point must be in [1, " +
                         std::to_string(SyncPolicy::kMaxAttempts) + "] (retry budget <= " +
                         std::to_string(SyncPolicy::kMaxAttempts - 1) + "), got " +
                         std::to_string(policy_.maxAttempts));
    }
    const obs::Labels rpLabel{{"rp", rp_->name()}};
    roundsTotal_ = &registry_->counter("rc_sync_rounds_total",
                                       "Sync rounds the engine has run", rpLabel);
    alarmsEscalated_ =
        &registry_->counter("rc_sync_alarms_escalated_total",
                            "Alarms the relying party raised during engine-driven syncs "
                            "(every one is post-retry-budget)",
                            rpLabel);
    fetchLatency_ = &registry_->histogram(
        "rc_sync_point_delivery_seconds",
        "Wall time to resolve one publication point (all attempts and probes)", rpLabel);
    const auto probeFiles = [&](const char* how) {
        return &registry_->counter(
            "rc_sync_probe_files_total",
            "Files the probe hashed, or matched by comparing with the relying party's copy",
            {{"rp", rp_->name()}, {"how", how}});
    };
    filesHashed_ = probeFiles("hashed");
    filesCompared_ = probeFiles("compared");
    manifestsDecoded_ = &manifestsDecodedCounter(*registry_, rp_->name());
    for (std::size_t h = 0; h < healthGauges_.size(); ++h) {
        healthGauges_[h] = &registry_->gauge(
            "rc_sync_points",
            "Publication points by current health class",
            {{"rp", rp_->name()},
             {"health", std::string(toString(static_cast<PointHealth>(h)))}});
    }
}

SyncEngine::PointState& SyncEngine::stateFor(const std::string& pointUri) {
    const auto it = points_.find(pointUri);
    if (it != points_.end()) return it->second;

    PointState ps;
    const obs::Labels labels{{"rp", rp_->name()}, {"point", pointUri}};
    ps.attempts = &registry_->counter("rc_sync_attempts_total",
                                      "Fetch attempts, including retries", labels);
    ps.retries =
        &registry_->counter("rc_sync_retries_total", "Fetch attempts after the first", labels);
    ps.faultsAbsorbed = &registry_->counter(
        "rc_sync_faults_absorbed_total",
        "Failed attempts inside rounds that ultimately delivered (faults the retry "
        "discipline healed without any alarm)",
        labels);
    ps.roundsFailed = &registry_->counter(
        "rc_sync_point_rounds_failed_total",
        "Point-rounds where the attempt budget was exhausted (cache retained)", labels);
    ps.roundsDelivered = &registry_->counter("rc_sync_point_rounds_delivered_total",
                                             "Point-rounds where the point was accepted",
                                             labels);
    ps.backoffTicks = &registry_->counter(
        "rc_sync_backoff_ticks_total", "Simulated backoff ticks accumulated before retries",
        labels);
    ps.recoveries = &registry_->counter(
        "rc_sync_recoveries_total", "Failed streaks that ended in a successful delivery",
        labels);
    ps.recoveryRounds = &registry_->counter(
        "rc_sync_recovery_rounds_total",
        "Total rounds spent in failed streaks that later recovered", labels);
    return points_.emplace(pointUri, std::move(ps)).first->second;
}

obs::Counter& SyncEngine::rejectionCounter(PointState& ps, const std::string& pointUri,
                                           FetchOutcome o) {
    const auto idx = static_cast<std::size_t>(o);
    if (ps.rejections[idx] == nullptr) {
        ps.rejections[idx] = &registry_->counter(
            "rc_sync_rejections_total", "Fetch attempts rejected, by probe outcome",
            {{"rp", rp_->name()},
             {"point", pointUri},
             {"outcome", std::string(toString(o))}});
    }
    return *ps.rejections[idx];
}

void SyncEngine::recordHealthTransition(PointHealth from, PointHealth to) {
    if (from == to) return;
    registry_
        ->counter("rc_sync_health_transitions_total",
                  "Publication-point health transitions",
                  {{"rp", rp_->name()},
                   {"from", std::string(toString(from))},
                   {"to", std::string(toString(to))}})
        .inc();
}

std::size_t SyncEngine::publishHealthGauges(const std::array<std::int64_t, 4>& reached) {
    for (std::size_t h = 0; h < healthGauges_.size(); ++h) healthGauges_[h]->set(reached[h]);
    return static_cast<std::size_t>(reached[static_cast<std::size_t>(PointHealth::Quarantined)]);
}

PointHealth SyncEngine::healthOf(const std::string& pointUri) const {
    const auto it = points_.find(pointUri);
    return it == points_.end() ? PointHealth::Healthy : it->second.health;
}

PointTelemetry SyncEngine::materialize(const PointState& ps) const {
    PointTelemetry pt;
    pt.attempts = ps.attempts->value();
    pt.retries = ps.retries->value();
    pt.faultsAbsorbed = ps.faultsAbsorbed->value();
    pt.roundsFailed = ps.roundsFailed->value();
    pt.roundsDelivered = ps.roundsDelivered->value();
    pt.consecutiveFailures = ps.consecutiveFailures;
    pt.backoffSpent = static_cast<Duration>(ps.backoffTicks->value());
    pt.health = ps.health;
    pt.highestManifestNumber = ps.highestManifestNumber;
    pt.sawManifest = ps.sawManifest;
    pt.currentStaleStreak = ps.currentStaleStreak;
    pt.longestStaleStreak = ps.longestStaleStreak;
    pt.recoveries = ps.recoveries->value();
    pt.recoveryRoundsSum = ps.recoveryRounds->value();
    for (std::size_t i = 0; i < ps.rejections.size(); ++i) {
        if (ps.rejections[i] != nullptr && ps.rejections[i]->value() > 0) {
            pt.rejections[static_cast<FetchOutcome>(i)] = ps.rejections[i]->value();
        }
    }
    return pt;
}

std::optional<PointTelemetry> SyncEngine::telemetryFor(const std::string& pointUri) const {
    const auto it = points_.find(pointUri);
    if (it == points_.end()) return std::nullopt;
    return materialize(it->second);
}

std::map<std::string, PointTelemetry> SyncEngine::telemetry() const {
    std::map<std::string, PointTelemetry> out;
    for (const auto& [uri, ps] : points_) out.emplace(uri, materialize(ps));
    return out;
}

EngineTotals SyncEngine::totals() const {
    EngineTotals t;
    t.rounds = roundsTotal_->value();
    t.alarmsRaised = alarmsEscalated_->value();
    for (const auto& [uri, ps] : points_) {
        t.attempts += ps.attempts->value();
        t.retries += ps.retries->value();
        t.faultsAbsorbed += ps.faultsAbsorbed->value();
        t.pointRoundsFailed += ps.roundsFailed->value();
        t.backoffSpent += static_cast<Duration>(ps.backoffTicks->value());
    }
    return t;
}

FetchOutcome SyncEngine::probe(const PointState& ps, const std::string& pointUri,
                               const FileMap& files, std::uint64_t* manifestNumber) const {
    const auto mftIt = files.find(kManifestName);
    if (mftIt == files.end()) return FetchOutcome::ManifestMissing;

    // A manifest byte-identical to the relying party's head is that head.
    const std::optional<HeldPoint> held = rp_->heldPoint(pointUri);
    Manifest fetched;
    const bool sameAsHead = held && mftIt->second == held->manifestBytes;
    if (!sameAsHead) {
        manifestsDecoded_->inc();
        try {
            fetched = Manifest::decode(ByteView(mftIt->second.data(), mftIt->second.size()));
        } catch (const ParseError&) {
            return FetchOutcome::ManifestUndecodable;
        }
    }
    const Manifest& m = sameAsHead ? held->manifest : fetched;

    // Stalloris defence: refuse state older than what we already accepted.
    // (Equal numbers pass: an unchanged point is normal, and an equivocating
    // same-number-different-hash manifest is accountable evidence the
    // relying party must see, not something to retry away.)
    if (ps.sawManifest && m.number < ps.highestManifestNumber) return FetchOutcome::Regressed;

    // Transfer-integrity probe: everything the manifest logs must be
    // present and hash-correct. An honest point always satisfies this (the
    // authority publishes exactly what it logs); any miss is delivery loss
    // or corruption — a retryable transport failure, not evidence. A file
    // equal to the relying party's copy under a name that its head and
    // this manifest log with one hash is compared, not hashed (FileIndex).
    FileIndex index(files, held ? &*held : nullptr);
    FetchOutcome outcome = FetchOutcome::Ok;
    for (const ManifestEntry& entry : m.entries) {
        // Wrong or no bytes under the right name: look for a preserved copy
        // under any name before judging.
        if (index.named(entry.filename, entry.fileHash) != nullptr ||
            index.anyWith(entry.fileHash) != nullptr) {
            continue;
        }
        outcome = files.count(entry.filename) == 0 ? FetchOutcome::LoggedObjectMissing
                                                   : FetchOutcome::LoggedObjectMismatch;
        break;
    }
    filesHashed_->inc(index.hashed());
    filesCompared_->inc(index.compared());
    if (outcome == FetchOutcome::Ok) *manifestNumber = m.number;
    return outcome;
}

std::optional<FileMap> SyncEngine::deliver(const std::string& pointUri, SyncReport& report) {
    const obs::Scope fetchScope(fetchLatency_);
    PointState& ps = stateFor(pointUri);
    const std::uint32_t budget = ps.health == PointHealth::Quarantined ? 1u : policy_.maxAttempts;

    std::optional<FileMap> accepted;
    std::uint32_t retriesUsed = 0;
    std::uint64_t acceptedNumber = 0;
    for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
        ps.attempts->inc();
        ++report.attempts;
        if (attempt > 0) {
            ps.retries->inc();
            ++report.retries;
            ++retriesUsed;
            const Duration backoff = Duration{1} << (attempt - 1);
            ps.backoffTicks->inc(static_cast<std::uint64_t>(backoff));
            report.backoffSpent += backoff;
        }

        auto files = source_->fetchPoint(pointUri, round_, attempt);
        FetchOutcome outcome = FetchOutcome::Unreachable;
        if (files.has_value()) outcome = probe(ps, pointUri, *files, &acceptedNumber);
        if (outcome != FetchOutcome::Ok) {
            rejectionCounter(ps, pointUri, outcome).inc();
            continue;
        }
        // Accepted; the probed head's number becomes the regression floor.
        accepted = std::move(files);
        break;
    }

    const PointHealth previousHealth = ps.health;
    if (accepted.has_value()) {
        ps.roundsDelivered->inc();
        ++report.pointsDelivered;
        ps.faultsAbsorbed->inc(retriesUsed);
        report.faultsAbsorbed += retriesUsed;
        if (ps.currentStaleStreak > 0) {
            ps.recoveries->inc();
            ps.recoveryRounds->inc(ps.currentStaleStreak);
            obs::log(obs::LogLevel::Info, "sync", "point-recovered",
                     {{"rp", rp_->name()},
                      {"point", pointUri},
                      {"failed_rounds", std::to_string(ps.currentStaleStreak)}});
            ps.currentStaleStreak = 0;
        }
        const bool wasQuarantined = ps.health == PointHealth::Quarantined;
        ps.consecutiveFailures = 0;
        ps.health = (retriesUsed > 0 || wasQuarantined) ? PointHealth::Degraded
                                                        : PointHealth::Healthy;
        ps.raiseFloor(acceptedNumber);
    } else {
        ps.roundsFailed->inc();
        ++report.pointsFailed;
        ++ps.consecutiveFailures;
        ++ps.currentStaleStreak;
        ps.longestStaleStreak = std::max(ps.longestStaleStreak, ps.currentStaleStreak);
        ps.health = ps.consecutiveFailures >= policy_.quarantineAfter ? PointHealth::Quarantined
                                                                      : PointHealth::Stale;
        if (ps.health == PointHealth::Quarantined && previousHealth != PointHealth::Quarantined) {
            obs::log(obs::LogLevel::Warn, "sync", "point-quarantined",
                     {{"rp", rp_->name()},
                      {"point", pointUri},
                      {"consecutive_failures", std::to_string(ps.consecutiveFailures)}});
        }
    }
    recordHealthTransition(previousHealth, ps.health);
    return accepted;
}

SyncReport SyncEngine::syncRound(Time now) {
    const obs::Scope scope("sync.round", "sync");
    SyncReport report;
    report.round = round_;

    std::vector<std::string> listed = source_->listPoints(round_);
    report.pointsListed = listed.size();
    std::sort(listed.begin(), listed.end());

    // The relying party's walk asks for one level at a time; each point it
    // reaches that the source lists is delivered all or nothing before the
    // level is processed, so every alarm the relying party raises is
    // post-budget by construction.
    const std::size_t alarmsBefore = rp_->alarms().count();
    std::array<std::int64_t, 4> reachedHealth{};  // by PointHealth, after delivery
    Snapshot level;
    rp_->sync(
        [&](const std::vector<std::string>& points) -> const Snapshot& {
            level.points.clear();
            for (const std::string& pointUri : points) {
                if (!std::binary_search(listed.begin(), listed.end(), pointUri)) continue;
                std::optional<FileMap> files = deliver(pointUri, report);
                ++reachedHealth[static_cast<std::size_t>(healthOf(pointUri))];
                if (files.has_value()) level.points.emplace(pointUri, std::move(*files));
            }
            return level;
        },
        now);
    report.alarmsRaised = rp_->alarms().count() - alarmsBefore;
    alarmsEscalated_->inc(report.alarmsRaised);

    report.pointsQuarantined = publishHealthGauges(reachedHealth);

    // One walk of the points' decoded views gives the report's count and
    // the epoch sink's state.
    auto epochState = std::make_shared<const RpkiState>(rp_->roaState(&report.validRoas));

    obs::log(obs::LogLevel::Debug, "sync", "round-complete",
             {{"rp", rp_->name()},
              {"round", std::to_string(round_)},
              {"delivered", std::to_string(report.pointsDelivered)},
              {"failed", std::to_string(report.pointsFailed)},
              {"alarms", std::to_string(report.alarmsRaised)}});

    ++round_;
    roundsTotal_->inc();

    // Persist the post-round state before acknowledging the round (commit
    // precedes the return, so a round that dies inside the commit returns
    // no report — the restarted incarnation reruns it). A crash
    // anywhere up to the commit point replays this round from the previous
    // committed state; RelyingParty::sync of an unchanged snapshot is a
    // no-op, so the replay converges instead of double-counting. The store
    // asks for the image or the round's delta, whichever it writes; once
    // the commit is durable the next delta starts from this state.
    if (store_ != nullptr) {
        store_->commit({[this] { return rp_->serializeState(); },
                        [this] { return rp_->serializeDelta(); }},
                       round_);
        rp_->clearDelta();
    }
    if (epochSink_ != nullptr) epochSink_(round_, std::move(epochState));
    return report;
}

void SyncEngine::resumeAt(std::uint64_t round) {
    if (round_ != 0) {
        throw UsageError("SyncEngine::resumeAt after the engine has already run");
    }
    round_ = round;
}

void SyncEngine::seedRegressionFloor(const std::string& pointUri,
                                     std::uint64_t manifestNumber) {
    stateFor(pointUri).raiseFloor(manifestNumber);
}

}  // namespace rpkic::rp
