#include "sim/chaos_soak.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "sim/harness.hpp"
#include "util/errors.hpp"

namespace rpkic::sim {

namespace {

using rp::AlarmType;
using rp::RcStatus;
using rp::RelyingParty;
using rp::SyncEngine;

std::string roaKey(const Roa& r) {
    return r.uri + "|" + std::to_string(r.serial) + "|" + std::to_string(r.asn);
}

/// Scans a relying party for consent to the disappearance of `uri`
/// (simulation serials are small; mirror of the Theorem-5.1 test oracle).
bool sawAnyDeadFor(const RelyingParty& alice, const std::string& uri) {
    for (std::uint64_t s = 0; s < 64; ++s) {
        if (alice.sawDeadFor(uri, s)) return true;
    }
    return false;
}

bool hasUnilateralAlarmFor(const RelyingParty& alice, const std::string& uri) {
    for (const auto& a : alice.alarms().ofType(AlarmType::UnilateralRevocation)) {
        if (a.victim == uri) return true;
    }
    return false;
}

/// A takedown is consented-to or alarmed if the RC itself OR any cached
/// ancestor carries the evidence: the relying party invalidates whole
/// subtrees while the .dead / UnilateralRevocation alarm names only the
/// topmost victim (Deleted RC and Overwritten RC procedures).
bool takedownExcused(const RelyingParty& alice, const std::string& startUri) {
    std::string uri = startUri;
    for (int depth = 0; depth < 64 && !uri.empty(); ++depth) {
        if (sawAnyDeadFor(alice, uri)) return true;
        if (hasUnilateralAlarmFor(alice, uri)) return true;
        if (alice.successorOf(uri) != nullptr) return true;  // rollover completed
        const rp::RcRecord* rec = alice.findRc(uri);
        if (rec == nullptr) break;
        uri = rec->cert.parentUri;
    }
    return false;
}

/// True if the chaotic relying party's view of `startUri`'s delivery chain
/// is visibly behind the fault-free twin: an RC or publication point on
/// the chain is flagged stale, or the chaos-facing engine accepted an
/// older manifest than the twin for a chain point (a serve-stale pin that
/// passed the probe: indistinguishable from "no change" until the pinned
/// manifest expires, which is exactly the exposure §5.3.2 bounds with
/// manifest lifetimes). Under such lag the chaotic relying party may hold
/// mosaic state no honest global snapshot ever equalled; what it must
/// never do is differ from the twin while every chain point is current.
bool chainLagging(const RelyingParty& chaotic, const SyncEngine& engine,
                  const SyncEngine& twinEngine, const std::string& startUri) {
    const auto pointLags = [&](const std::string& p) {
        if (p.empty()) return false;
        if (chaotic.isPointStale(p)) return true;
        const std::optional<rp::PointTelemetry> mine = engine.telemetryFor(p);
        const std::optional<rp::PointTelemetry> theirs = twinEngine.telemetryFor(p);
        if (!theirs.has_value() || !theirs->sawManifest) return false;
        return !mine.has_value() || !mine->sawManifest ||
               mine->highestManifestNumber < theirs->highestManifestNumber;
    };
    std::string uri = startUri;
    for (int depth = 0; depth < 64 && !uri.empty(); ++depth) {
        const rp::RcRecord* rec = chaotic.findRc(uri);
        if (rec == nullptr) return true;  // incomplete chain: missing information
        if (rec->stale) return true;
        if (pointLags(rec->pointUri) || pointLags(rec->cert.pubPointUri)) return true;
        uri = rec->cert.parentUri;
    }
    return false;
}

/// Draws one fault for (pointUri, round) or nothing. Deterministic in rng.
std::optional<Fault> drawFault(Rng& rng, const SoakConfig& cfg, std::uint64_t round,
                               const std::string& pointUri, const FileMap& files) {
    if (!rng.nextBool(cfg.faultRate)) return std::nullopt;

    Fault f;
    f.pointUri = pointUri;
    f.round = round;

    const std::uint64_t roll = rng.nextBelow(100);
    if (roll < 25) {
        f.kind = FaultKind::DropFile;
    } else if (roll < 45) {
        f.kind = FaultKind::Corrupt;
    } else if (roll < 55) {
        f.kind = FaultKind::Truncate;
    } else if (roll < 70) {
        f.kind = FaultKind::DropPoint;
    } else if (roll < 80) {
        f.kind = FaultKind::WithholdManifest;
    } else if (roll < 95) {
        f.kind = FaultKind::ServeStale;
    } else {
        f.kind = FaultKind::Flap;
    }
    if (f.kind == FaultKind::ServeStale && round == 0) f.kind = FaultKind::DropPoint;

    switch (f.kind) {
        case FaultKind::DropFile:
        case FaultKind::Corrupt:
        case FaultKind::Truncate: {
            if (files.empty()) return std::nullopt;
            auto it = files.begin();
            std::advance(it, static_cast<long>(rng.nextBelow(files.size())));
            if (it->second.empty()) return std::nullopt;
            f.filename = it->first;
            if (f.kind == FaultKind::Corrupt) {
                f.param = rng.nextBelow(it->second.size() * 8);
            } else if (f.kind == FaultKind::Truncate) {
                f.param = rng.nextBelow(it->second.size());
            }
            break;
        }
        case FaultKind::ServeStale: {
            const std::uint64_t reach = std::min<std::uint64_t>(round, cfg.stallHorizon);
            f.param = round - 1 - rng.nextBelow(reach);
            break;
        }
        case FaultKind::Flap:
            f.param = 1 + rng.nextBelow(2);
            break;
        case FaultKind::DropPoint:
        case FaultKind::WithholdManifest:
            break;
        case FaultKind::OversizedObject:
        case FaultKind::InjectJunk:
        case FaultKind::ChainGraft:  // == kLast
            // Semantic kinds: scheduled only by adversary packs (their
            // parameters are scripted, not drawable), never by this soak.
            return std::nullopt;
    }

    if (f.kind == FaultKind::Flap) {
        f.rounds = 2 + static_cast<std::uint32_t>(rng.nextBelow(5));
        f.attempts = Fault::kAllAttempts;
    } else {
        f.rounds = rng.nextBool(0.6) ? 1 : 2 + static_cast<std::uint32_t>(rng.nextBelow(3));
        // Transient faults stay within the retry budget: the engine can
        // absorb them. Persistent ones survive every attempt.
        const bool transient = rng.nextBool(0.45);
        f.attempts = transient && cfg.retryBudget > 0
                         ? 1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.retryBudget))
                         : Fault::kAllAttempts;
    }
    return f;
}

SoakResult runSoakImpl(const SoakConfig& cfg, const FaultPlan* replay) {
    SoakResult result;
    result.seed = cfg.seed;
    RunContext ctx("soak", "soak.run", "run seed=" + std::to_string(cfg.seed), cfg.seed,
                   cfg.registry, cfg.recorder, cfg.status);
    obs::FlightRecorder* recorder = ctx.recorder();
    ctx.publish("rounds-total", std::to_string(cfg.rounds));
    ctx.publish("state", "running");

    // --- world ---------------------------------------------------------------
    RandomScheduleDriver driver(worldConfig(cfg.seed, cfg.adversarialProbability, cfg.rounds));
    RepositorySource honest(driver.repo());

    FaultPlan header;
    if (replay != nullptr) {
        header = *replay;
    } else {
        header.seed = cfg.seed;
        header.rounds = cfg.rounds;
        header.retryBudget = cfg.retryBudget;
        header.adversarialPpm =
            static_cast<std::uint32_t>(std::llround(cfg.adversarialProbability * 1e6));
        header.stallHorizon = cfg.stallHorizon;
        header.crashEvery = cfg.crashEvery;
    }
    ChaosSource chaos(honest, std::move(header));

    // With crashEvery > 0 an injected crash kills the chaotic "process" and
    // restart() rebuilds it from whatever the durable store recovered.
    MemberProcess chaotic("chaotic", driver.trustAnchors(), chaos, cfg.retryBudget,
                          ctx.registry(), recorder);
    MemberProcess twin("twin", driver.trustAnchors(), honest, cfg.retryBudget, ctx.registry(),
                       recorder);

    // --- serving-plane epoch publication --------------------------------------
    // Epochs are published at round commit and dump lines rendered right
    // away (publication-time capture survives ring eviction). Rounds a
    // crash forces the engine to redo would re-publish; the lastPublished
    // watermark keeps the serial sequence gapless and identical to a
    // crash-free run of the same seed.
    std::optional<serve::EpochStore> localEpochStore;
    serve::EpochStore* epochStore = cfg.rtrStore;
    if (cfg.captureEpochs && epochStore == nullptr) {
        localEpochStore.emplace();
        epochStore = &*localEpochStore;
    }
    std::uint64_t lastPublishedRound = 0;
    if (epochStore != nullptr) {
        chaotic.attachEpochSink([&](std::uint64_t round, std::shared_ptr<const RpkiState> state) {
            if (round <= lastPublishedRound) return;  // crash redo
            lastPublishedRound = round;
            const auto epoch = epochStore->publish(round, std::move(state));
            if (cfg.captureEpochs) result.epochDump += serve::epochDumpLine(cfg.seed, *epoch);
            if (cfg.onEpochPublished) cfg.onEpochPublished();
        });
    }

    // --- durability layer (crashEvery > 0) -----------------------------------
    // Without a stateVfs the store gets a MemVfs seeded per seed (torn
    // writes are deterministic). Mid-instruction crashes can only be
    // injected there; on a DiskVfs the kill degenerates to a restart at
    // the round boundary.
    const bool durable = cfg.crashEvery > 0;
    vfs::MemVfs* memVfs =
        durable ? chaotic.attachStore(cfg.stateVfs, cfg.stateDir, {}, cfg.seed) : nullptr;

    Rng faultRng(cfg.seed * 0x9e3779b97f4a7c15ull + 0xc4a05u);
    // Separate stream for crash-point placement: consumed identically when
    // generating and when replaying a plan, so `--plan` reruns crash at the
    // same VFS operations.
    Rng crashRng(cfg.seed * 0x9e3779b97f4a7c15ull + 0xc4a54u);

    // --- oracles -------------------------------------------------------------
    std::set<std::string> twinEverValid;   // roaKey over all rounds
    std::set<std::string> chaoticWatched;  // RC uris ever Valid for chaotic
    std::size_t alarmsChecked = 0;         // I5 incremental cursor
    // The current incarnation's latest round report (I2/I3's allDelivered);
    // a restart clears it, and every report joins result.rounds as it is
    // returned.
    std::optional<rp::SyncReport> lastReport;
    const auto keepReport = [&](const rp::SyncReport& report) {
        result.rounds.push_back(report);
        lastReport = report;
    };
    const bool honestWorld = cfg.adversarialProbability == 0.0;
    const auto violation = [&](std::uint64_t r, const std::string& what) {
        ctx.violation("round " + std::to_string(r) + ": " + what, {{"round", std::to_string(r)}});
    };

    // Kill/restart: the "process" died mid-commit. Recover it through the
    // one restart path (I8 included) and rerun whatever the crash wiped
    // out (I9). Returns false on an invariant violation.
    const auto restartChaotic = [&](std::uint64_t r, Time now) -> bool {
        ++result.stats.crashes;
        lastReport.reset();
        const MemberProcess::Restart rs = chaotic.restart();
        if (rs.opened) {
            result.stats.storeTornBytes += rs.recovery.tornBytesDiscarded;
            if (rs.recovery.recovered) ++result.stats.storeRecoveries;
            const std::string crash = std::to_string(result.stats.crashes);
            obs::flightRecord(recorder, obs::FlightKind::CrashRealized, "soak",
                              "crash=" + crash + " round=" + std::to_string(r) + " " +
                                  rs.recovery.summary());
            ctx.capture("crash-realized", "seed-" + std::to_string(cfg.seed) + "-crash-" + crash,
                        {{"seed", std::to_string(cfg.seed)},
                         {"round", std::to_string(r)},
                         {"recovery", rs.recovery.summary()}});
        }
        if (!rs.ok()) {
            violation(r, rs.violation);
            return false;
        }
        // Alarms raised after the durable state was written died with the
        // process; rewind the audit cursor to what survived.
        alarmsChecked = std::min(alarmsChecked, chaotic.rp().alarms().all().size());
        // I9: rerun every round the crash wiped out. The durable meta is
        // the count of completed rounds, so this loop runs zero times (the
        // interrupted round's commit had already fsynced) or once.
        try {
            while (chaotic.engine().round() <= r) {
                ++result.stats.roundsRedone;
                keepReport(chaotic.engine().syncRound(now));
            }
        } catch (const std::exception& e) {
            violation(r, std::string("redo after restart failed: ") + e.what());
            return false;
        }
        return true;
    };

    for (std::uint64_t r = 0; r < cfg.rounds; ++r) {
        const obs::Scope roundScope("soak.round", "soak", nullptr, recorder,
                                    "round r=" + std::to_string(r));
        const Time now = static_cast<Time>(r);
        ctx.publish("round", std::to_string(r));

        if (r > 0) driver.step(now);

        if (replay == nullptr) {
            // Schedule this round's faults against the points that exist
            // right now (std::map order keeps the draw deterministic).
            for (const auto& [uri, files] : driver.repo().points()) {
                auto f = drawFault(faultRng, cfg, r, uri, files);
                if (f.has_value()) chaos.addFault(std::move(*f));
            }
        }

        // Arm a kill inside the commit path: the crash fires a few VFS
        // operations ahead — mid-append, mid-fsync, or inside an image
        // commit, possibly in a later round. The rng draw happens in both
        // generate and replay mode so `--plan` reruns the same schedule.
        bool boundaryKill = false;
        if (durable && (r + 1) % cfg.crashEvery == 0) {
            const std::uint64_t ahead = 1 + crashRng.nextBelow(12);
            if (memVfs != nullptr) {
                memVfs->armCrashAt(memVfs->opCount() + ahead);
            } else {
                // Real filesystem: a mid-instruction crash cannot be
                // injected from userspace, so the kill degenerates to a
                // restart at the round boundary (still exercises recovery,
                // restore, and resume against actual disk state).
                boundaryKill = true;
            }
        }

        // --- I1: the pipeline must absorb anything the plan throws at it ---
        // (a crash is not an escape — it is the scheduled kill, and the
        // restart path must bring the relying party back: I8/I9).
        const MemberProcess::SyncOutcome synced = chaotic.sync(now);
        bool roundOk = true;
        if (synced.ok()) keepReport(synced.report);
        if (synced.crashed) {
            roundOk = restartChaotic(r, now);
        } else if (!synced.error.empty()) {
            violation(r, "exception escaped chaotic sync: " + synced.error);
            roundOk = false;
        }
        if (roundOk && boundaryKill) roundOk = restartChaotic(r, now);
        const MemberProcess::SyncOutcome twinSynced = twin.sync(now);
        if (!twinSynced.ok()) {
            violation(r, "exception escaped fault-free twin sync: " + twinSynced.error);
            roundOk = false;
        }
        if (!roundOk) break;  // state after an escape is undefined; stop here

        RelyingParty& alice = chaotic.rp();
        const SyncEngine& engine = chaotic.engine();
        const std::vector<Roa> twinValid = twin.rp().validRoas();
        std::set<std::string> twinNow;
        for (const Roa& roa : twinValid) {
            twinNow.insert(roaKey(roa));
            twinEverValid.insert(roaKey(roa));
        }

        // --- I2 / I3: nothing fabricated; retained state is flagged ---
        // (after a crash the interrupted round's report may be absent: it
        // died before the commit, so the restarted incarnation re-ran it).
        const bool allDelivered =
            lastReport.has_value() && lastReport->round == r && lastReport->pointsFailed == 0;
        for (const Roa& roa : alice.validRoas()) {
            const std::string key = roaKey(roa);
            if (twinNow.count(key) > 0) continue;
            // Not current in the twin: only a visibly lagging or stale
            // delivery chain may explain the difference (§5.3.2 — the
            // exposure window manifest expiry bounds). From fresh data the
            // chaotic relying party must agree with the twin.
            if (chainLagging(alice, engine, twin.engine(), roa.parentUri)) continue;
            if (twinEverValid.count(key) == 0) {
                violation(r, "false-valid ROA " + key +
                                 " from a current chain (never valid in the fault-free twin)");
            } else {
                violation(r, "silently retained ROA " + key +
                                 " (twin dropped it; no stale flag or lag on its chain)");
            }
        }

        // --- I4: no silent takedown (Theorem 5.1 status oracle) ---
        for (const auto& [uri, rec] : alice.rcRecords()) {
            if (rec.status == RcStatus::Valid) chaoticWatched.insert(uri);
        }
        for (const std::string& uri : chaoticWatched) {
            const rp::RcRecord* rec = alice.findRc(uri);
            if (rec == nullptr) {
                violation(r, "watched RC record vanished: " + uri);
                continue;
            }
            if (rec->status != RcStatus::NoLongerValid) continue;
            if (takedownExcused(alice, uri)) continue;
            violation(r, "silent takedown of " + uri +
                             " (NoLongerValid without .dead, alarm, or successor on its chain)");
        }

        // --- I7: twin and chaotic live in the same world ---
        if ((r + 1) % kGlobalCheckEvery == 0) {
            alice.globalConsistencyCheck(twin.rp().exportManifestClaims(), now);
            twin.rp().globalConsistencyCheck(alice.exportManifestClaims(), now);
        }

        // --- I5 / I6 / I7: alarm-class audit over the new alarms ---
        const auto& all = alice.alarms().all();
        for (; alarmsChecked < all.size(); ++alarmsChecked) {
            const rp::Alarm& a = all[alarmsChecked];
            switch (a.type) {
                case AlarmType::MissingInformation:
                    if (a.accountable || !a.perpetrator.empty()) {
                        violation(r, "missing-information alarm became accountable: " + a.str());
                    }
                    break;
                case AlarmType::InvalidSyntax:
                case AlarmType::ChildTooBroad:
                    if (!a.accountable || a.perpetrator.empty()) {
                        violation(r, "structural alarm lost its accountability: " + a.str());
                    }
                    break;
                case AlarmType::GlobalInconsistency:
                    if (a.accountable) {
                        violation(r, "accountable global inconsistency inside one world: " +
                                         a.str());
                    }
                    break;
                case AlarmType::BadKeyRollover:
                case AlarmType::UnilateralRevocation:
                    break;  // accountability legitimately depends on staleness
            }
            if (a.accountable && a.perpetrator.empty()) {
                violation(r, "accountable alarm names no perpetrator: " + a.str());
            }
            if (honestWorld && a.accountable) {
                violation(r, "chaos fabricated an accountable accusation in an honest world: " +
                                 a.str());
            }
        }

        if (allDelivered && !(alice.roaState() == twin.rp().roaState())) {
            ++result.stats.divergentCleanRounds;
        }

        ctx.publish("alarms", std::to_string(alice.alarms().count()));
        ctx.publish("violations", std::to_string(ctx.violations.size()));
        if (durable) ctx.publish("store-lsn", std::to_string(chaotic.store()->latestLsn()));
    }

    if (cfg.forceInvariantFail) {
        violation(cfg.rounds, "forced invariant failure (--force-invariant-fail test hook)");
    }

    // --- stats ---------------------------------------------------------------
    // Engine totals/telemetry are materialized from the registry, so they
    // are cumulative across incarnations: a recreated engine re-binds the
    // same rc_sync_* counters (labels are stable per point).
    result.plan = chaos.plan();
    SoakStats& s = result.stats;
    s.faultsScheduled = result.plan.faults.size();
    s.faultApplications = chaos.faultApplications();
    if (chaotic.alive()) {  // a failed restart leaves no process to read
        const SyncEngine& engine = chaotic.engine();
        const rp::EngineTotals totals = engine.totals();
        s.attempts = totals.attempts;
        s.retries = totals.retries;
        s.faultsAbsorbed = totals.faultsAbsorbed;
        s.pointRoundsFailed = totals.pointRoundsFailed;
        for (const auto& [uri, pt] : engine.telemetry()) {
            s.maxStaleStreak = std::max(s.maxStaleStreak, pt.longestStaleStreak);
            s.recoveries += pt.recoveries;
            s.meanRecoveryRounds += static_cast<double>(pt.recoveryRoundsSum);
        }
        s.meanRecoveryRounds = s.recoveries == 0
                                   ? 0.0
                                   : s.meanRecoveryRounds / static_cast<double>(s.recoveries);
        s.alarms = chaotic.rp().alarms().count();
        for (const auto& a : chaotic.rp().alarms().all()) {
            if (a.accountable) ++s.accountableAlarms;
        }
        s.validRoasFinal = chaotic.rp().validRoas().size();
    }
    s.twinAlarms = twin.rp().alarms().count();
    s.twinValidRoasFinal = twin.rp().validRoas().size();
    if (durable) s.storeCommits = chaotic.store()->latestLsn();

    result.violations = std::move(ctx.violations);
    result.postmortems = std::move(ctx.postmortems);
    result.passed = result.violations.empty();
    ctx.publish("state", result.passed ? "passed" : "failed");
    return result;
}

/// Reconstructs the configuration a plan was generated under, so replays
/// run the identical experiment: seed, rounds, budgets and crash cadence
/// from the plan, everything else from `base`.
SoakConfig configFromPlan(const FaultPlan& plan, SoakConfig base) {
    base.seed = plan.seed;
    base.rounds = static_cast<std::uint32_t>(plan.rounds);
    base.retryBudget = plan.retryBudget;
    base.adversarialProbability = static_cast<double>(plan.adversarialPpm) / 1e6;
    base.stallHorizon = plan.stallHorizon;
    base.crashEvery = plan.crashEvery;
    base.faultRate = 0.0;
    return base;
}

}  // namespace

SoakResult runSoak(const SoakConfig& cfg) {
    return runSoakImpl(cfg, nullptr);
}

SoakResult runSoakWithPlan(const FaultPlan& plan, obs::Registry* registry, vfs::Vfs* stateVfs,
                           const std::string& stateDir) {
    SoakConfig overrides;
    overrides.registry = registry;
    overrides.stateVfs = stateVfs;
    overrides.stateDir = stateDir;
    return runSoakWithPlan(plan, overrides);
}

SoakResult runSoakWithPlan(const FaultPlan& plan, const SoakConfig& overrides) {
    return runSoakImpl(configFromPlan(plan, overrides), &plan);
}

}  // namespace rpkic::sim
