// Chaos soak harness over the relying-party pipeline.
//
// Runs the randomized authority-hierarchy driver (sim/driver.hpp) with a
// seeded FaultPlan injected between the repository and a SyncEngine-backed
// relying party, and checks robustness invariants every round against a
// fault-free "twin" relying party syncing the same honest world:
//
//  I1  no exception escapes the sync pipeline;
//  I2  no fabrication from fresh data: a ROA the chaotic relying party
//      holds valid that was never valid for the fault-free twin must sit
//      behind a delivery chain that is visibly stale or lagging the twin
//      (serve-stale pins can assemble mosaic states; §5.3.2 bounds that
//      exposure with manifest expiry — from current data, never);
//  I3  graceful degradation is flagged: a retained ROA the twin no longer
//      holds valid must sit behind a stale or lagging chain (§5.3.2
//      "revert to an older set" is visible, not silent);
//  I4  no silent takedown (Theorem 5.1 status oracle): an RC that was
//      valid and is now NoLongerValid had a .dead consent, a
//      unilateral-revocation alarm, or a rollover successor somewhere on
//      its cached issuer chain (subtree invalidations name the topmost
//      victim);
//  I5  Table-7 accountability classes hold for every alarm (missing
//      information is never accountable and never names a perpetrator;
//      invalid-syntax and child-too-broad are always accountable; every
//      accountable alarm names its perpetrator);
//  I6  chaos fabricates no evidence: with an all-honest driver, the
//      chaotic relying party raises no accountable alarms at all;
//  I7  the twin and the chaotic relying party live in the same world: the
//      periodic global consistency check between them never raises an
//      *accountable* inconsistency (Theorems 5.2/5.3 under faults).
//
// With `crashEvery > 0` the soak additionally runs a kill/restart loop
// over the durable store (rp/durable_store.hpp): the chaotic relying
// party's state is commit()ted after every round, a crash is periodically
// injected into the store's VFS mid-commit, and the "process" — relying
// party plus sync engine — is destroyed and rebuilt from the surviving
// bytes (sim/harness.hpp's MemberProcess::restart, the one restart path).
// Two extra invariants then apply:
//
//  I8  recovery round-trips exactly: the payload the reopened store
//      returns deserializes, and re-serializing the restored relying
//      party reproduces it byte for byte;
//  I9  a crashed incarnation resumes: the restarted engine reruns the
//      interrupted round and the soak converges under I1-I7 exactly as
//      scheduled (the same fault plan drives both incarnations).
//
// A failing run returns its FaultPlan; `rpkic-soak --plan FILE` replays it
// and reproduces the identical alarm/invariant outcome (crash schedule
// included — the plan carries crashEvery).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/serve/introspect.hpp"
#include "rpki/chaos.hpp"
#include "rp/durable_store.hpp"
#include "rp/sync_engine.hpp"
#include "serve/epoch.hpp"
#include "sim/driver.hpp"
#include "util/vfs.hpp"

namespace rpkic::sim {

struct SoakConfig {
    std::uint64_t seed = 1;
    std::uint32_t rounds = 40;
    /// Retries after the first attempt (SyncPolicy.maxAttempts = budget+1).
    std::uint32_t retryBudget = 2;
    /// Per-point per-round probability that a fault is scheduled.
    double faultRate = 0.35;
    /// Driver misbehaviour probability (0 = all-honest authorities, which
    /// arms invariant I6).
    double adversarialProbability = 0.15;
    /// Serve-stale pins reach at most this many rounds back.
    std::uint64_t stallHorizon = 8;
    /// Metrics registry the soak's engines record into. nullptr means a
    /// registry local to the run (each soak starts from zero counters, so
    /// repeated soaks in one process never bleed telemetry into each
    /// other and same-seed runs dump byte-identical expositions).
    obs::Registry* registry = nullptr;
    /// Kill/restart cadence: every `crashEvery` rounds a crash is armed
    /// inside the durable store's commit path and the chaotic relying
    /// party + engine are rebuilt from the recovered bytes. 0 disables
    /// the durability layer entirely (no store attached).
    std::uint32_t crashEvery = 0;
    /// Filesystem the durable store runs on. nullptr with crashEvery > 0
    /// means an internal MemVfs seeded from `seed` (deterministic torn
    /// writes). A DiskVfs here turns crash points into plain
    /// restart-at-round-boundary kills (real disks cannot be crashed
    /// mid-instruction from userspace).
    vfs::Vfs* stateVfs = nullptr;
    /// Directory for the store's WAL.
    std::string stateDir = "soak-state";
    /// Flight recorder for the run. nullptr means a recorder local to the
    /// run (same rationale as `registry`: postmortem bundles are then
    /// byte-identical across same-seed runs). Alarm/commit hooks also tee
    /// into the enabled global recorder for /flightz either way.
    obs::FlightRecorder* recorder = nullptr;
    /// Live /statusz rows (seed, round, alarms, store lsn) are published
    /// here under "soak/seed-<seed>/...". nullptr disables publication.
    obs::StatusBoard* status = nullptr;
    /// Test/CI hook: append one synthetic invariant violation at the end
    /// of the run, so the postmortem-capture path fires deterministically
    /// even on seeds that pass.
    bool forceInvariantFail = false;
    /// Serving-plane epoch publication: every committed round of the
    /// chaotic engine is published here as an RTR epoch (rounds redone
    /// after a crash are deduplicated, so the serial sequence is gapless
    /// and identical to a crash-free run). nullptr with captureEpochs
    /// true uses an EpochStore local to the run.
    serve::EpochStore* rtrStore = nullptr;
    /// Accumulate canonical epoch dump lines (epochDumpLine) in
    /// SoakResult::epochDump — the thread-count byte-identity artifact.
    bool captureEpochs = false;
    /// Called after each epoch publication (tools hook RtrServer::notify
    /// here to fan Serial Notify out to connected caches).
    std::function<void()> onEpochPublished;
};

struct SoakStats {
    std::uint64_t faultsScheduled = 0;     ///< plan entries
    std::uint64_t faultApplications = 0;   ///< fault hits across attempts
    std::uint64_t attempts = 0;
    std::uint64_t retries = 0;
    std::uint64_t faultsAbsorbed = 0;      ///< healed by retry, no alarm
    std::uint64_t pointRoundsFailed = 0;   ///< budget exhausted
    std::uint32_t maxStaleStreak = 0;      ///< worst consecutive failed rounds
    std::uint64_t recoveries = 0;
    double meanRecoveryRounds = 0.0;       ///< mean failed-streak before recovery
    std::uint64_t alarms = 0;              ///< chaotic relying party, total
    std::uint64_t accountableAlarms = 0;
    std::uint64_t twinAlarms = 0;          ///< fault-free baseline
    std::size_t validRoasFinal = 0;
    std::size_t twinValidRoasFinal = 0;
    /// Rounds where every point was delivered yet the chaotic and twin
    /// valid-ROA states differ (lag diagnostics; not an invariant).
    std::uint64_t divergentCleanRounds = 0;
    // --- durability (crashEvery > 0) ---
    std::uint64_t crashes = 0;            ///< injected kills survived
    std::uint64_t storeCommits = 0;       ///< rounds durably committed
    std::uint64_t storeRecoveries = 0;    ///< successful open() recoveries
    std::uint64_t storeTornBytes = 0;     ///< WAL tail bytes crashes tore off
    std::uint64_t roundsRedone = 0;       ///< rounds rerun after a restart
};

struct SoakResult {
    std::uint64_t seed = 0;
    bool passed = false;
    std::vector<std::string> violations;  ///< empty iff passed
    FaultPlan plan;                       ///< replayable schedule
    SoakStats stats;
    /// The chaotic engine's per-round sync reports (scoreboard data:
    /// delivered/failed/retries/alarms per round).
    std::vector<rp::SyncReport> rounds;
    /// Postmortem bundles captured when an invariant failed or a crash
    /// was realized (one per trigger; deterministic bytes per seed).
    std::vector<obs::CapturedBundle> postmortems;
    /// Canonical epoch dump (one line per published epoch; "" unless
    /// SoakConfig::captureEpochs). Byte-identical per seed at every
    /// thread count.
    std::string epochDump;
};

/// Runs one soak: generates a FaultPlan from cfg.seed round by round (so
/// faults target publication points that actually exist as the simulated
/// hierarchy evolves) and checks invariants I1-I7.
SoakResult runSoak(const SoakConfig& cfg);

/// Replays a serialized plan: no generation, identical outcome.
/// `registry` overrides the run-local metrics registry (see SoakConfig);
/// `stateVfs`/`stateDir` override the durable store's backing filesystem
/// when the plan carries a crashEvery cadence (nullptr = internal MemVfs,
/// which reproduces the generating run's crash points bit-identically).
SoakResult runSoakWithPlan(const FaultPlan& plan, obs::Registry* registry = nullptr,
                           vfs::Vfs* stateVfs = nullptr,
                           const std::string& stateDir = "soak-state");

/// Replay with a full config: plan-derived fields (seed, rounds, budgets,
/// crash cadence) come from the plan; everything else — registry, state
/// backend, status board, epoch capture / RTR store wiring — from
/// `overrides`.
SoakResult runSoakWithPlan(const FaultPlan& plan, const SoakConfig& overrides);

}  // namespace rpkic::sim
