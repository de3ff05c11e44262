#include "adversary/runner.hpp"

#include <algorithm>
#include <sstream>

#include "detector/state_io.hpp"
#include "fleet/consensus.hpp"
#include "fleet/vote.hpp"
#include "sim/harness.hpp"
#include "util/errors.hpp"

namespace rpkic::adversary {

namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using fleet::MemberFaultClass;
using rp::RelyingParty;
using sim::MemberProcess;

IpPrefix pfx(const std::string& s) {
    return IpPrefix::parse(s);
}

PackRunResult runPackImpl(const PackRunConfig& cfg, const FaultPlan* replay) {
    const std::string packName = replay != nullptr ? replay->pack : cfg.pack;
    if (packName.empty()) throw UsageError("no adversary pack named");
    std::unique_ptr<ScenarioPack> pack = makePack(packName);

    PackRunResult result;
    result.pack = packName;
    result.seed = replay != nullptr ? replay->seed : cfg.seed;
    const std::uint32_t rounds =
        replay != nullptr ? static_cast<std::uint32_t>(replay->rounds) : cfg.rounds;
    const std::uint32_t retryBudget = replay != nullptr ? replay->retryBudget : cfg.retryBudget;

    // Run-local observability unless the caller wants the exposition (same
    // contract as the soak: repeated runs start from zero).
    sim::RunContext ctx("adversary", "adversary.run",
                        "pack=" + packName + " seed=" + std::to_string(result.seed), result.seed,
                        cfg.registry, cfg.recorder);
    obs::Registry* registry = ctx.registry();
    obs::FlightRecorder* recorder = ctx.recorder();

    const obs::Labels packLabel = {{"pack", packName}};
    obs::Counter& mRuns = registry->counter("rc_adversary_runs_total",
                                            "Adversary pack runs started", packLabel);
    obs::Counter& mFaults = registry->counter(
        "rc_adversary_faults_injected_total",
        "Fault applications delivered to the chaotic relying party by pack runs", packLabel);
    obs::Counter& mOverlays =
        registry->counter("rc_adversary_overlays_total",
                          "Mirror-world overlay applications during pack runs", packLabel);
    obs::Counter& mAlarms = registry->counter(
        "rc_adversary_alarms_total", "Alarms the chaotic relying party raised under pack runs",
        packLabel);
    obs::Counter& mMisses = registry->counter(
        "rc_adversary_oracle_misses_total",
        "Oracle requirements a pack run failed to realize (I12/I13 misses)", packLabel);
    obs::Counter& mSpurious = registry->counter(
        "rc_adversary_oracle_spurious_total",
        "Realized alarms/verdicts outside the pack oracle (false positives)", packLabel);
    mRuns.inc();

    // --- world ---------------------------------------------------------------
    consent::AuthorityOptions aopts;
    aopts.ts = 4;
    aopts.manifestLifetime = static_cast<Duration>(rounds) + 50;
    AuthorityDirectory dir(result.seed, aopts);
    Repository repo;
    Repository attackRepo;
    Authority& rir = dir.createTrustAnchor(
        "rir", ResourceSet::ofPrefixes({pfx("10.0.0.0/8"), pfx("20.0.0.0/8")}), repo, 0);
    Authority& isp1 =
        dir.createChild(rir, "isp1", ResourceSet::ofPrefixes({pfx("10.0.0.0/9")}), repo, 0);
    Authority& isp2 =
        dir.createChild(rir, "isp2", ResourceSet::ofPrefixes({pfx("10.128.0.0/9")}), repo, 0);
    Authority& cust1 =
        dir.createChild(isp1, "cust1", ResourceSet::ofPrefixes({pfx("10.0.0.0/16")}), repo, 0);

    RepositorySource honest(repo);
    FaultPlan header;
    if (replay != nullptr) {
        header = *replay;
    } else {
        header.seed = result.seed;
        header.rounds = rounds;
        header.retryBudget = retryBudget;
        header.adversarialPpm = 0;
        header.stallHorizon = 10;
        header.crashEvery = 0;
        header.pack = packName;
    }
    ChaosSource chaos(honest, std::move(header));

    MemberProcess chaoticMember("chaotic", {rir.cert()}, chaos, retryBudget, registry, recorder,
                                /*checkIntermediateStates=*/!cfg.disableDetection);
    MemberProcess twinMember("twin", {rir.cert()}, honest, retryBudget, registry, recorder);
    RelyingParty& chaotic = chaoticMember.rp();
    RelyingParty& twin = twinMember.rp();
    const rp::SyncEngine& engine = chaoticMember.engine();

    // Three-member mini-fleet: the chaotic member (0) against two honest
    // votes (the twin voting as members 1 and 2) with quorum 2 — the
    // smallest fleet whose majority can attribute the chaotic feed.
    fleet::ConsensusTracker tracker(3, 2);

    Rng churnRng(result.seed * 0x9e3779b97f4a7c15ull + 0xad7e5ull);
    Rng packRng(result.seed * 0x9e3779b97f4a7c15ull + 0xa77acull);
    PackWorld world{dir,         repo,   attackRepo, chaos, packRng,
                    result.seed, rounds, 0,          0,     replay != nullptr,
                    {}};

    std::ostringstream transcript;
    const std::string linePrefix =
        "pack " + packName + " seed " + std::to_string(result.seed) + " ";
    bool everQuarantined = false;
    std::vector<MemberFaultClass> verdictClasses;  // first-seen order, deduped
    std::vector<std::string> harnessErrors;
    int bgCounter = 0;

    for (std::uint64_t r = 0; r < rounds; ++r) {
        const Time now = static_cast<Time>(r);
        world.round = r;
        world.now = now;
        const obs::Scope roundScope("adversary.round", "adversary", nullptr, recorder,
                                    "round r=" + std::to_string(r));

        // --- benign churn: every pack (including calm) runs over a live,
        // refreshing world so detection is judged against motion, not
        // stasis. Deterministic in (seed, round) alone.
        if (r == 1) {
            isp1.issueRoa("isp1-anchor", static_cast<Asn>(65001), {{pfx("10.0.0.0/10"), 24}},
                          repo, now);
            isp2.issueRoa("isp2-anchor", static_cast<Asn>(65002),
                          {{pfx("10.128.0.0/10"), 24}}, repo, now);
            cust1.issueRoa("cust1-anchor", static_cast<Asn>(65003), {{pfx("10.0.0.0/16"), 24}},
                           repo, now);
        }
        if (r >= 1) {
            for (const char* name : {"rir", "isp1", "isp2", "cust1"}) {
                if (world.suspendRefresh.count(name) > 0) continue;
                Authority& a = dir.get(name);
                if (a.isRevoked() || !a.hasPublished()) continue;
                a.refreshManifest(repo, now);
            }
            if (r >= 2 && world.suspendRefresh.count("isp2") == 0 && churnRng.nextBool(0.4)) {
                ++bgCounter;
                isp2.issueRoa("bg" + std::to_string(bgCounter),
                              static_cast<Asn>(64600 + bgCounter),
                              {{pfx("10.128." + std::to_string(1 + bgCounter % 100) + ".0/24"),
                                24}},
                              repo, now);
            }
        }

        // --- the attack script ---
        try {
            pack->onRound(world);
        } catch (const std::exception& e) {
            harnessErrors.push_back("round " + std::to_string(r) +
                                    ": pack script threw: " + e.what());
            break;
        }

        // --- sync both relying parties ---
        const MemberProcess::SyncOutcome synced = chaoticMember.sync(now);
        if (!synced.ok()) {
            harnessErrors.push_back("round " + std::to_string(r) +
                                    ": exception escaped chaotic sync: " + synced.error);
            break;
        }
        const MemberProcess::SyncOutcome twinSynced = twinMember.sync(now);
        if (!twinSynced.ok()) {
            harnessErrors.push_back("round " + std::to_string(r) +
                                    ": exception escaped twin sync: " + twinSynced.error);
            break;
        }
        const rp::SyncReport& report = synced.report;

        // --- §5.4 cross-check (the chaotic member audits the honest view) ---
        if (!cfg.disableDetection && (r + 1) % sim::kGlobalCheckEvery == 0) {
            chaotic.globalConsistencyCheck(twin.exportManifestClaims(), now);
        }

        // --- mini-fleet consensus: who does the quorum blame? ---
        const auto voteOf = [&](const RelyingParty& rp, std::uint32_t member) {
            const RpkiState state = rp.roaState();
            return fleet::VrpVote::cast(rp, member, r, stateToText(state), state.size());
        };
        const fleet::VrpVote chaoticVote = voteOf(chaotic, 0);
        fleet::VrpVote honest1 = voteOf(twin, 1);
        fleet::VrpVote honest2 = honest1;
        honest2.member = 2;
        const fleet::EpochDecision decision = tracker.decide(r, {chaoticVote, honest1, honest2});
        MemberFaultClass roundVerdict = MemberFaultClass::None;
        for (const fleet::MemberVerdict& verdict : decision.verdicts) {
            if (verdict.member != 0) continue;
            roundVerdict = verdict.cls;
            if (std::find(verdictClasses.begin(), verdictClasses.end(), verdict.cls) ==
                verdictClasses.end()) {
                verdictClasses.push_back(verdict.cls);
                registry
                    ->counter("rc_adversary_verdicts_total",
                              "Distinct fleet verdict classes attributed to the chaotic "
                              "member during pack runs",
                              {{"pack", packName},
                               {"class", std::string(fleet::toString(verdict.cls))}})
                    .inc();
            }
        }

        bool quarantinedNow = false;
        for (const auto& [uri, pt] : engine.telemetry()) {
            if (pt.health == rp::PointHealth::Quarantined) quarantinedNow = true;
        }
        everQuarantined = everQuarantined || quarantinedNow;

        std::uint64_t accountable = 0;
        for (const rp::Alarm& a : chaotic.alarms().all()) {
            if (a.accountable) ++accountable;
        }
        transcript << linePrefix << "round " << r << " delivered=" << report.pointsDelivered
                   << " failed=" << report.pointsFailed
                   << " alarms=" << chaotic.alarms().count() << " accountable=" << accountable
                   << " verdict="
                   << (roundVerdict == MemberFaultClass::None
                           ? std::string_view("-")
                           : fleet::toString(roundVerdict))
                   << " roas=" << chaotic.validRoas().size() << "\n";
    }

    // --- judge against the oracle -------------------------------------------
    result.realized.alarms = chaotic.alarms().all();
    for (const auto& [uri, pt] : engine.telemetry()) {
        for (const auto& [outcome, n] : pt.rejections) {
            if (n > 0) result.realized.rejections[outcome] += n;
        }
    }
    result.realized.quarantined = everQuarantined;
    result.realized.verdictClasses = verdictClasses;

    result.oracle = cfg.oracleOverride != nullptr ? *cfg.oracleOverride : pack->oracle();
    result.diff = diffOracle(result.oracle, result.realized);
    for (const std::string& err : harnessErrors) {
        result.diff.missing.push_back("harness error: " + err);
    }
    result.passed = result.diff.clean();
    result.plan = chaos.plan();
    result.faultApplications = chaos.faultApplications();
    result.overlayApplications = chaos.overlayApplications();

    mFaults.inc(result.faultApplications);
    mOverlays.inc(result.overlayApplications);
    mAlarms.inc(result.realized.alarms.size());
    mMisses.inc(result.diff.missing.size());
    mSpurious.inc(result.diff.spurious.size());

    transcript << linePrefix << "result=" << (result.passed ? "ok" : "FAIL")
               << " alarms=" << result.realized.alarms.size()
               << " faults=" << result.plan.faults.size()
               << " applications=" << result.faultApplications
               << " overlays=" << result.overlayApplications << "\n";
    for (const std::string& m : result.diff.missing) {
        transcript << linePrefix << "missing " << m << "\n";
        obs::flightRecord(recorder, obs::FlightKind::InvariantFail, "adversary",
                          "oracle miss: " + m);
    }
    for (const std::string& s : result.diff.spurious) {
        transcript << linePrefix << "spurious " << s << "\n";
        obs::flightRecord(recorder, obs::FlightKind::InvariantFail, "adversary",
                          "oracle spurious: " + s);
    }
    result.transcript = transcript.str();

    if (!result.passed) {
        ctx.capture("oracle-diff", "pack-" + packName + "-seed-" + std::to_string(result.seed),
                    {{"pack", packName},
                     {"seed", std::to_string(result.seed)},
                     {"missing", std::to_string(result.diff.missing.size())},
                     {"spurious", std::to_string(result.diff.spurious.size())}});
    }
    result.postmortems = std::move(ctx.postmortems);
    return result;
}

}  // namespace

PackRunResult runPack(const PackRunConfig& cfg) {
    return runPackImpl(cfg, nullptr);
}

PackRunResult runPackWithPlan(const FaultPlan& plan, const PackRunConfig& overrides) {
    if (plan.pack.empty()) throw UsageError("plan names no adversary pack (pack= missing)");
    return runPackImpl(overrides, &plan);
}

}  // namespace rpkic::adversary
