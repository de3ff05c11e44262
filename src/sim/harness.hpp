// Harness core under the chaos soak, the crash sweep, the fleet
// (fleet/fleet.hpp) and the attack zoo (adversary/runner.hpp). Each keeps
// its own straight-line round loop on top of two pieces:
//
//  * RunContext: the run-local registry and flight recorder (fallbacks, so
//    same-seed runs produce byte-identical bundles), the run's scope (a
//    trace span and a flight scope), its /statusz rows, and violation +
//    postmortem capture under one shared cap of kMaxBundles bundles per
//    run;
//
//  * MemberProcess: a relying party, its SyncEngine and an optional
//    DurableStore, built from the shared RpOptions{ts=4, tg=8} and
//    maxAttempts = retryBudget + 1. restart() is the one kill -> recover
//    -> resume path: reopen the store, compose the relying party from what
//    it recovered (RelyingParty::restore: the image, proven to re-serialize
//    byte for byte (I8), then its deltas), rebuild the engine, resume, and
//    reseed the Stalloris floor. The soak's kill/restart, every sweep
//    rerun and the fleet's rejoin use it; the fleet's mirror hijack reuses
//    its engine-rebuild step.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/serve/introspect.hpp"
#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "sim/driver.hpp"
#include "util/vfs.hpp"

namespace rpkic::sim {

/// Rounds between §5.4 global consistency cross-checks against the twin.
inline constexpr std::uint32_t kGlobalCheckEvery = 5;

/// The soak's and the sweep's world: manifests outlive the run.
DriverConfig worldConfig(std::uint64_t seed, double adversarialProbability,
                         std::uint64_t rounds);

/// Ordered key/value rows of a postmortem bundle's context section.
using BundleContext = std::vector<std::pair<std::string, std::string>>;

class RunContext {
public:
    /// Bundles (violations and realized crashes alike) captured per run.
    static constexpr std::size_t kMaxBundles = 8;

    /// The run's scope is span `spanName` and flight scope `scopeLabel`,
    /// both under `component` (string literals). nullptr
    /// `registry`/`recorder` = local to the run; rows go to `status` (if
    /// any) as "<component>/seed-<seed>/<key>".
    RunContext(const char* component, const char* spanName, const std::string& scopeLabel,
               std::uint64_t seed, obs::Registry* registry, obs::FlightRecorder* recorder,
               obs::StatusBoard* status = nullptr);
    RunContext(const RunContext&) = delete;
    RunContext& operator=(const RunContext&) = delete;

    obs::Registry* registry() const { return registry_; }
    obs::FlightRecorder* recorder() const { return recorder_; }

    void publish(const std::string& key, const std::string& value) const;

    /// Appends `what`, records an InvariantFail event and captures an
    /// "invariant-fail" bundle (context: seed, `where`, violation).
    void violation(const std::string& what, const BundleContext& where = {});

    /// Captures a bundle unless the run already holds kMaxBundles.
    void capture(const std::string& trigger, const std::string& label,
                 const BundleContext& context);

    std::vector<std::string> violations;
    std::vector<obs::CapturedBundle> postmortems;

private:
    const char* component_;
    std::uint64_t seed_;
    obs::Registry localRegistry_;
    obs::Registry* registry_;
    obs::FlightRecorder localRecorder_;
    obs::FlightRecorder* recorder_;
    obs::StatusBoard* status_;
    std::string statusPrefix_;
    std::optional<obs::Scope> scope_;  ///< opened after attachMetrics
};

class MemberProcess {
public:
    /// Alarms and store commits are recorded into `recorder` (nullptr:
    /// only the enabled global recorder sees them).
    MemberProcess(std::string name, std::vector<ResourceCert> trustAnchors,
                  SnapshotSource& source, std::uint32_t retryBudget, obs::Registry* registry,
                  obs::FlightRecorder* recorder, bool checkIntermediateStates = true);
    MemberProcess(const MemberProcess&) = delete;
    MemberProcess& operator=(const MemberProcess&) = delete;

    /// Opens a store under `dir` (expected fresh) on `fs`, or on a MemVfs
    /// of its own seeded with `tornSeed` when `fs` is nullptr; every round
    /// commits. Returns the MemVfs the store runs on (nullptr on a disk),
    /// where crashes can be armed.
    vfs::MemVfs* attachStore(vfs::Vfs* fs, std::string dir, rp::StoreOptions options = {},
                             std::uint64_t tornSeed = 0);

    /// Attached to this and every later incarnation's engine.
    void attachEpochSink(rp::SyncEngine::EpochSink sink);

    struct SyncOutcome {
        bool crashed = false;  ///< an injected crash fired mid-round
        std::string error;     ///< an escaping exception's text
        rp::SyncReport report;
        bool ok() const { return !crashed && error.empty(); }
    };
    /// One engine round; never throws. After a crash the process must be
    /// killed or restarted.
    SyncOutcome sync(Time now);

    /// Drops relying party and engine; the store's bytes survive.
    void kill();

    struct Restart {
        std::string violation;  ///< "" = the member is back up
        bool opened = false;    ///< the store reopened (`recovery` is valid)
        bool restored = false;  ///< from a payload, not the trust anchors
        rp::RecoveryReport recovery;
        bool ok() const { return violation.empty(); }
    };
    /// Kills the process if alive, then recovers it; the engine resumes at
    /// `resumeRound` (default: the recovered completed-round count). A
    /// failure is a violation and leaves the process dead.
    Restart restart(std::optional<std::uint64_t> resumeRound = std::nullopt);

    /// A new engine over the current relying party, fed by `source`.
    void rebuildEngine(SnapshotSource& source, std::uint64_t resumeRound);

    bool alive() const { return engine_.has_value(); }
    /// rp() and engine() only while alive().
    rp::RelyingParty& rp() { return *rp_; }
    rp::SyncEngine& engine() { return *engine_; }
    rp::DurableStore* store() { return store_.has_value() ? &*store_ : nullptr; }

private:
    void freshRelyingParty();

    std::string name_;
    std::vector<ResourceCert> trustAnchors_;
    rp::RpOptions options_;
    rp::SyncPolicy policy_;
    obs::Registry* registry_;
    obs::FlightRecorder* recorder_;
    SnapshotSource* source_;
    rp::SyncEngine::EpochSink epochSink_;
    std::optional<vfs::MemVfs> ownedVfs_;
    std::optional<rp::DurableStore> store_;
    std::optional<rp::RelyingParty> rp_;
    std::optional<rp::SyncEngine> engine_;
};

}  // namespace rpkic::sim
