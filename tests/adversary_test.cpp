// Attack zoo (src/adversary): pack registry and oracles, the oracle
// differ's exact semantics, end-to-end pack runs against their shipped
// oracles (invariants I12/I13), oracle soundness in both directions (a
// wrong oracle must fail; a calm run must produce nothing), detection
// teeth (disabling the detector paths must break a semantic pack), and
// bit-exact --plan replay of pack runs.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/pack.hpp"
#include "adversary/runner.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "util/errors.hpp"

namespace rpkic::adversary {
namespace {

using fleet::MemberFaultClass;
using rp::AlarmType;
using rp::FetchOutcome;

// ---------------------------------------------------------------------------
// Registry

TEST(PackRegistry, CatalogueIsStableAndCalmIsLast) {
    const std::vector<std::string>& names = packNames();
    ASSERT_GE(names.size(), 6u);
    // The five attack classes from the issue plus the fault-free control.
    for (const char* required : {"oversized-object", "manifest-graph", "same-serial-swap",
                                 "rollover-replay", "stalloris-drain", "calm"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
            << "missing pack: " << required;
    }
    EXPECT_EQ(names.back(), "calm") << "the false-positive control must close the catalogue";
    for (const std::string& name : names) {
        const auto pack = makePack(name);
        EXPECT_EQ(pack->info().name, name);
        EXPECT_FALSE(pack->info().title.empty());
        EXPECT_FALSE(pack->info().threatRef.empty());
        EXPECT_EQ(pack->oracle().pack, name);
        // Every pack feeds the fuzz corpus (satellite: corpus seeding).
        EXPECT_FALSE(pack->tlvSeed().empty());
        EXPECT_FALSE(pack->chainProgramSeed().empty());
    }
}

TEST(PackRegistry, UnknownNamesAreRejected) {
    EXPECT_THROW((void)makePack("meteor"), UsageError);
    EXPECT_THROW((void)resolvePackList("calm,meteor"), UsageError);
    EXPECT_THROW((void)resolvePackList(""), UsageError);
    EXPECT_EQ(resolvePackList("all"), packNames());
    EXPECT_EQ(resolvePackList("calm"), std::vector<std::string>{"calm"});
    const std::vector<std::string> two = resolvePackList("stalloris-drain,calm");
    ASSERT_EQ(two.size(), 2u);
    EXPECT_EQ(two[0], "stalloris-drain");
    EXPECT_EQ(two[1], "calm");
}

// ---------------------------------------------------------------------------
// diffOracle semantics

PackOracle emptyOracle(const std::string& pack) {
    PackOracle o;
    o.pack = pack;
    return o;
}

TEST(DiffOracle, CleanWhenNothingExpectedAndNothingRealized) {
    EXPECT_TRUE(diffOracle(emptyOracle("t"), RealizedRun{}).clean());
}

TEST(DiffOracle, MissingRequiredAlarmIsReportedI12) {
    PackOracle o = emptyOracle("t");
    o.requiredAlarms.push_back({AlarmType::UnilateralRevocation, true, 2, "", ""});
    RealizedRun run;
    run.alarms.push_back(
        {AlarmType::UnilateralRevocation, "x.roa", "rpki://rir/rir.cer", true, "", 0});
    const OracleDiff diff = diffOracle(o, run);  // one matching alarm < minCount 2
    ASSERT_EQ(diff.missing.size(), 1u);
    EXPECT_NE(diff.missing[0].find("unilateral-revocation"), std::string::npos);
    EXPECT_TRUE(diff.spurious.empty());
}

TEST(DiffOracle, VictimAndPerpetratorSubstringsConstrainTheMatch) {
    PackOracle o = emptyOracle("t");
    o.requiredAlarms.push_back({AlarmType::MissingInformation, false, 1, "isp1", ""});
    RealizedRun run;
    run.alarms.push_back({AlarmType::MissingInformation, "rpki://isp2/", "", false, "", 0});
    const OracleDiff diff = diffOracle(o, run);
    // The isp2 alarm does not satisfy (victim~isp1) — and is itself spurious.
    EXPECT_EQ(diff.missing.size(), 1u);
    EXPECT_EQ(diff.spurious.size(), 1u);
}

TEST(DiffOracle, UnsanctionedAlarmIsSpuriousUnlessTolerated) {
    RealizedRun run;
    run.alarms.push_back({AlarmType::GlobalInconsistency, "m", "", false, "", 0});
    PackOracle bare = emptyOracle("t");
    EXPECT_EQ(diffOracle(bare, run).spurious.size(), 1u);
    PackOracle tolerant = bare;
    tolerant.toleratedAlarms.push_back({AlarmType::GlobalInconsistency, false});
    EXPECT_TRUE(diffOracle(tolerant, run).clean());
    // Tolerance is (class, accountability)-exact: an *accountable* alarm of
    // the same class stays spurious.
    run.alarms[0].accountable = true;
    EXPECT_EQ(diffOracle(tolerant, run).spurious.size(), 1u);
}

TEST(DiffOracle, RejectionsQuarantineAndAttributionAreJudged) {
    PackOracle o = emptyOracle("t");
    o.requiredRejections.push_back({FetchOutcome::Regressed, 3});
    o.expectQuarantine = true;
    o.expectAttribution = true;
    o.attribution = MemberFaultClass::Stalled;

    RealizedRun run;  // nothing realized: all three requirements missing
    EXPECT_EQ(diffOracle(o, run).missing.size(), 3u);

    run.rejections[FetchOutcome::Regressed] = 3;
    run.quarantined = true;
    run.verdictClasses.push_back(MemberFaultClass::Stalled);
    EXPECT_TRUE(diffOracle(o, run).clean());

    // A verdict class outside {attribution} ∪ tolerated is spurious (I13).
    run.verdictClasses.push_back(MemberFaultClass::MirrorFed);
    EXPECT_EQ(diffOracle(o, run).spurious.size(), 1u);
    o.toleratedVerdicts.push_back(MemberFaultClass::MirrorFed);
    EXPECT_TRUE(diffOracle(o, run).clean());

    // Quarantine is exact-match in both directions: a quarantine the
    // oracle did not predict is a false positive.
    PackOracle noQuarantine = emptyOracle("t");
    RealizedRun quarantined;
    quarantined.quarantined = true;
    EXPECT_EQ(diffOracle(noQuarantine, quarantined).spurious.size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end pack runs

TEST(PackRuns, EveryPackPassesItsShippedOracle) {
    for (const std::string& name : packNames()) {
        for (const std::uint64_t seed : {1ull, 2ull}) {
            PackRunConfig cfg;
            cfg.pack = name;
            cfg.seed = seed;
            const PackRunResult r = runPack(cfg);
            EXPECT_TRUE(r.passed) << name << " seed " << seed << " diff:\n"
                                  << (r.diff.missing.empty() ? "" : r.diff.missing[0])
                                  << (r.diff.spurious.empty() ? "" : r.diff.spurious[0]);
            EXPECT_TRUE(r.diff.clean());
            EXPECT_EQ(r.plan.pack, name) << "plan must name its generating pack";
            EXPECT_EQ(r.plan.seed, seed);
            EXPECT_FALSE(r.transcript.empty());
            EXPECT_TRUE(r.postmortems.empty()) << "no capture on a passing run";
        }
    }
}

TEST(PackRuns, CalmControlRealizesAbsolutelyNothing) {
    // The false-positive guard in its strongest form: a fault-free run
    // must not merely pass its oracle, it must realize zero of everything.
    PackRunConfig cfg;
    cfg.pack = "calm";
    cfg.seed = 7;
    const PackRunResult r = runPack(cfg);
    ASSERT_TRUE(r.passed);
    EXPECT_TRUE(r.realized.alarms.empty());
    EXPECT_TRUE(r.realized.rejections.empty());
    EXPECT_FALSE(r.realized.quarantined);
    EXPECT_TRUE(r.realized.verdictClasses.empty());
    EXPECT_EQ(r.faultApplications, 0u);
    EXPECT_EQ(r.overlayApplications, 0u);
    EXPECT_TRUE(r.plan.faults.empty());
}

TEST(PackRuns, AttackPacksActuallyPerturbDelivery) {
    // Guards against a pack degenerating into calm: every attack pack must
    // inject faults or overlays that demonstrably land.
    for (const std::string& name : packNames()) {
        if (name == "calm") continue;
        PackRunConfig cfg;
        cfg.pack = name;
        const PackRunResult r = runPack(cfg);
        EXPECT_GT(r.faultApplications + r.overlayApplications, 0u)
            << name << " perturbed nothing";
        EXPECT_FALSE(r.realized.alarms.empty()) << name << " raised no alarms at all";
    }
}

TEST(PackRuns, StallorisDrainQuarantinesAndIsAttributedStalled) {
    PackRunConfig cfg;
    cfg.pack = "stalloris-drain";
    const PackRunResult r = runPack(cfg);
    ASSERT_TRUE(r.passed);
    EXPECT_TRUE(r.realized.quarantined);
    EXPECT_GT(r.realized.rejections.at(FetchOutcome::Regressed), 0u)
        << "the stale re-pin must be refused as a manifest regression";
    EXPECT_NE(std::find(r.realized.verdictClasses.begin(), r.realized.verdictClasses.end(),
                        MemberFaultClass::Stalled),
              r.realized.verdictClasses.end());
}

TEST(PackRuns, DisablingDetectionBreaksTheOracle) {
    // Teeth: with the detector paths off, the attack goes unseen and the
    // oracle must FAIL with missing requirements — proving the oracles
    // test the detectors, not merely the injectors.
    PackRunConfig cfg;
    cfg.pack = "same-serial-swap";
    cfg.disableDetection = true;
    const PackRunResult r = runPack(cfg);
    EXPECT_FALSE(r.passed);
    EXPECT_FALSE(r.diff.missing.empty());
}

TEST(PackRuns, DeliberatelyWrongOracleIsRefuted) {
    // Oracle soundness, direction 1: demanding alarms a calm world cannot
    // produce must fail (the differ is not vacuously true).
    PackOracle wrong = emptyOracle("calm");
    wrong.requiredAlarms.push_back({AlarmType::BadKeyRollover, true, 5, "", ""});
    PackRunConfig cfg;
    cfg.pack = "calm";
    cfg.oracleOverride = &wrong;
    const PackRunResult r = runPack(cfg);
    EXPECT_FALSE(r.passed);
    ASSERT_EQ(r.diff.missing.size(), 1u);
    EXPECT_NE(r.diff.missing[0].find("bad-key-rollover"), std::string::npos);

    // Direction 2: an oracle that sanctions nothing must flag a real
    // attack's alarms as spurious (false-positive guard has teeth too).
    PackOracle blind = emptyOracle("oversized-object");
    PackRunConfig cfg2;
    cfg2.pack = "oversized-object";
    cfg2.oracleOverride = &blind;
    const PackRunResult r2 = runPack(cfg2);
    EXPECT_FALSE(r2.passed);
    EXPECT_FALSE(r2.diff.spurious.empty());
}

TEST(PackRuns, FailuresCapturePostmortemsAndMetrics) {
    obs::Registry registry;
    obs::FlightRecorder recorder(1024);
    PackRunConfig cfg;
    cfg.pack = "rollover-replay";
    cfg.disableDetection = true;  // force an oracle miss
    cfg.registry = &registry;
    cfg.recorder = &recorder;
    const PackRunResult r = runPack(cfg);
    ASSERT_FALSE(r.passed);
    ASSERT_EQ(r.postmortems.size(), 1u);
    EXPECT_EQ(r.postmortems[0].trigger, "oracle-diff");
    EXPECT_FALSE(r.postmortems[0].bytes.empty());
    const std::string prom = registry.renderPrometheus();
    EXPECT_NE(prom.find("rc_adversary_runs_total"), std::string::npos);
    EXPECT_NE(prom.find("rc_adversary_oracle_misses_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Replay (determinism contract)

TEST(PackRuns, PlanReplayIsByteIdentical) {
    for (const std::string& name : {std::string("stalloris-drain"),
                                    std::string("same-serial-swap")}) {
        PackRunConfig cfg;
        cfg.pack = name;
        cfg.seed = 3;
        const PackRunResult direct = runPack(cfg);
        ASSERT_TRUE(direct.passed) << name;
        ASSERT_EQ(direct.plan.pack, name);

        // The plan round-trips through its text form, like --plan does.
        const FaultPlan plan = FaultPlan::parse(direct.plan.serialize());
        ASSERT_EQ(plan, direct.plan);

        const PackRunResult replay = runPackWithPlan(plan, PackRunConfig{});
        EXPECT_EQ(replay.transcript, direct.transcript) << name;
        EXPECT_EQ(replay.passed, direct.passed);
        EXPECT_EQ(replay.faultApplications, direct.faultApplications);
        EXPECT_EQ(replay.overlayApplications, direct.overlayApplications);
        EXPECT_EQ(replay.plan, direct.plan) << "replay must not grow the plan";
        EXPECT_EQ(replay.realized.alarms.size(), direct.realized.alarms.size());
        EXPECT_EQ(replay.realized.verdictClasses, direct.realized.verdictClasses);
    }
}

TEST(PackRuns, ReplayRejectsPlansWithoutAPack) {
    EXPECT_THROW((void)runPackWithPlan(FaultPlan{}, PackRunConfig{}), UsageError);
}

}  // namespace
}  // namespace rpkic::adversary
