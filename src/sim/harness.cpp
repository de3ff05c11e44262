#include "sim/harness.hpp"

namespace rpkic::sim {

DriverConfig worldConfig(std::uint64_t seed, double adversarialProbability,
                         std::uint64_t rounds) {
    DriverConfig cfg;
    cfg.seed = seed;
    cfg.adversarialProbability = adversarialProbability;
    cfg.authority.manifestLifetime = static_cast<Duration>(rounds) + 50;
    return cfg;
}

// ===========================================================================
// RunContext

RunContext::RunContext(const char* component, const char* spanName,
                       const std::string& scopeLabel, std::uint64_t seed,
                       obs::Registry* registry, obs::FlightRecorder* recorder,
                       obs::StatusBoard* status)
    : component_(component),
      seed_(seed),
      registry_(registry != nullptr ? registry : &localRegistry_),
      recorder_(recorder != nullptr ? recorder : &localRecorder_),
      status_(status),
      statusPrefix_(std::string(component_) + "/seed-" + std::to_string(seed) + "/") {
    if (recorder == nullptr) localRecorder_.attachMetrics(registry_);
    scope_.emplace(spanName, component_, nullptr, recorder_, scopeLabel);
}

void RunContext::publish(const std::string& key, const std::string& value) const {
    if (status_ != nullptr) status_->set(statusPrefix_ + key, value);
}

void RunContext::violation(const std::string& what, const BundleContext& where) {
    violations.push_back(what);
    obs::flightRecord(recorder_, obs::FlightKind::InvariantFail, component_, what);
    BundleContext context{{"seed", std::to_string(seed_)}};
    context.insert(context.end(), where.begin(), where.end());
    context.emplace_back("violation", what);
    capture("invariant-fail",
            "seed-" + std::to_string(seed_) + "-violation-" + std::to_string(violations.size()),
            context);
}

void RunContext::capture(const std::string& trigger, const std::string& label,
                         const BundleContext& context) {
    if (postmortems.size() >= kMaxBundles) return;
    postmortems.push_back(
        obs::CapturedBundle{trigger, label,
                            obs::buildPostmortem(*recorder_, registry_, trigger, context)});
}

// ===========================================================================
// MemberProcess

MemberProcess::MemberProcess(std::string name, std::vector<ResourceCert> trustAnchors,
                             SnapshotSource& source, std::uint32_t retryBudget,
                             obs::Registry* registry, obs::FlightRecorder* recorder,
                             bool checkIntermediateStates)
    : name_(std::move(name)),
      trustAnchors_(std::move(trustAnchors)),
      options_{.ts = 4, .tg = 8, .checkIntermediateStates = checkIntermediateStates},
      registry_(registry),
      recorder_(recorder),
      source_(&source) {
    policy_.maxAttempts = retryBudget + 1;
    freshRelyingParty();
    rebuildEngine(source, 0);
}

void MemberProcess::freshRelyingParty() {
    rp_.emplace(name_, trustAnchors_, options_, registry_);
    rp_->attachAlarmRecorder(recorder_);
}

vfs::MemVfs* MemberProcess::attachStore(vfs::Vfs* fs, std::string dir, rp::StoreOptions options,
                                        std::uint64_t tornSeed) {
    if (fs == nullptr) fs = &ownedVfs_.emplace(tornSeed);
    store_.emplace(*fs, std::move(dir), std::move(options), registry_);
    store_->attachRecorder(recorder_);
    store_->open();
    engine_->attachStore(&*store_);
    return dynamic_cast<vfs::MemVfs*>(fs);
}

void MemberProcess::attachEpochSink(rp::SyncEngine::EpochSink sink) {
    epochSink_ = std::move(sink);
    if (engine_.has_value()) engine_->attachEpochSink(epochSink_);
}

MemberProcess::SyncOutcome MemberProcess::sync(Time now) {
    SyncOutcome out;
    try {
        out.report = engine_->syncRound(now);
    } catch (const vfs::CrashInjected&) {
        out.crashed = true;
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    return out;
}

void MemberProcess::kill() {
    engine_.reset();
    rp_.reset();
}

MemberProcess::Restart MemberProcess::restart(std::optional<std::uint64_t> resumeRound) {
    kill();
    Restart out;
    std::string failure = "store recovery failed after injected crash: ";
    try {
        rp::RecoveredState saved;
        out.recovery = store_->open(&saved);
        out.opened = true;
        if (out.recovery.recovered) {
            failure = "recovered state (round " + std::to_string(saved.meta) +
                      " payload) does not restore: ";
            rp_.emplace(rp::RelyingParty::restore(saved, registry_));
            rp_->attachAlarmRecorder(recorder_);
            out.restored = true;
        } else {
            // Crashed before any commit became durable: a fresh process
            // starts from the trust anchors, exactly like round 0 did.
            freshRelyingParty();
        }
    } catch (const std::exception& e) {
        out.violation = failure + e.what();
        return out;
    }
    rebuildEngine(*source_, resumeRound.value_or(store_->latestMeta()));
    return out;
}

void MemberProcess::rebuildEngine(SnapshotSource& source, std::uint64_t resumeRound) {
    source_ = &source;
    engine_.emplace(*rp_, source, policy_, registry_);
    if (store_.has_value()) engine_->attachStore(&*store_);
    if (epochSink_) engine_->attachEpochSink(epochSink_);
    if (resumeRound > 0) engine_->resumeAt(resumeRound);
    // The Stalloris regression floor is engine state, not relying-party
    // state; seed it from the relying party's manifests so the new engine
    // refuses the same stale serves the previous one refused.
    for (const auto& claim : rp_->exportManifestClaims()) {
        engine_->seedRegressionFloor(claim.pointUri, claim.number);
    }
}

}  // namespace rpkic::sim
