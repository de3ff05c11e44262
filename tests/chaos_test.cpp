// Chaos engine + resilient sync: fault plans round-trip, the sync engine
// absorbs transient faults without alarms, Stalloris-style stale serving
// is refused and surfaces as visible staleness (never a silent validity
// revert), and the soak harness is reproducible from a serialized plan.
#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "consent/authority.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "rpki/objects.hpp"
#include "sim/chaos_soak.hpp"
#include "util/errors.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::AlarmType;
using rp::FetchOutcome;
using rp::PointHealth;
using rp::RelyingParty;
using rp::RpOptions;
using rp::SyncEngine;
using rp::SyncPolicy;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

// ---------------------------------------------------------------------------
// FaultPlan serialization

FaultPlan samplePlan() {
    FaultPlan plan;
    plan.seed = 42;
    plan.rounds = 30;
    plan.retryBudget = 2;
    plan.adversarialPpm = 150000;
    plan.stallHorizon = 6;
    plan.faults.push_back({FaultKind::DropFile, "rpki://org/", "r1.roa", 3, 1, 1, 0});
    plan.faults.push_back(
        {FaultKind::Corrupt, "rpki://org/", "manifest.mft", 5, 2, Fault::kAllAttempts, 17});
    plan.faults.push_back({FaultKind::Truncate, "rpki://isp/", "x.cer", 7, 1, 2, 9});
    plan.faults.push_back(
        {FaultKind::DropPoint, "rpki://isp/", "", 8, 3, Fault::kAllAttempts, 0});
    plan.faults.push_back({FaultKind::WithholdManifest, "rpki://org/", "", 9, 1, 1, 0});
    plan.faults.push_back(
        {FaultKind::ServeStale, "rpki://org/", "", 12, 4, Fault::kAllAttempts, 10});
    plan.faults.push_back({FaultKind::Flap, "rpki://isp/", "", 15, 6, Fault::kAllAttempts, 2});
    return plan;
}

TEST(FaultPlan, TextRoundTripsExactly) {
    const FaultPlan plan = samplePlan();
    const std::string text = plan.serialize();
    const FaultPlan back = FaultPlan::parse(text);
    EXPECT_EQ(back, plan);
    // Canonical: serializing again is byte-identical.
    EXPECT_EQ(back.serialize(), text);
}

TEST(FaultPlan, MalformedInputsRaiseParseError) {
    EXPECT_THROW((void)FaultPlan::parse("not a fault plan"), ParseError);
    EXPECT_THROW((void)FaultPlan::parse("faultplan v2 seed=1 rounds=1"), ParseError);
    EXPECT_THROW(
        (void)FaultPlan::parse(samplePlan().serialize() + "fault kind=meteor point=x\n"),
        ParseError);
}

TEST(FaultPlan, U32FieldsRejectValuesAboveU32) {
    // 2^32 would wrap to 0 (a retry budget of 0 on replay) and 2^32 + 1 to 1.
    const std::string header = "faultplan v1 seed=1 rounds=4 ";
    EXPECT_EQ(FaultPlan::parse(header + "retry=4294967295\n").retryBudget, 4294967295u);
    for (const char* field : {"retry", "adversarial-ppm", "crash-every"}) {
        EXPECT_THROW((void)FaultPlan::parse(header + field + "=4294967296\n"), ParseError)
            << field;
    }
    const std::string fault = "fault kind=drop-point point=rpki://org/ round=1 ";
    EXPECT_THROW((void)FaultPlan::parse(header + "\n" + fault + "rounds=4294967297\n"),
                 ParseError);
    EXPECT_THROW((void)FaultPlan::parse(header + "\n" + fault + "attempts=4294967296\n"),
                 ParseError);
}

TEST(FaultPlan, ActivationWindows) {
    Fault f;
    f.round = 4;
    f.rounds = 2;
    f.attempts = 1;
    EXPECT_FALSE(f.activeAt(3, 0));
    EXPECT_TRUE(f.activeAt(4, 0));
    EXPECT_FALSE(f.activeAt(4, 1));  // transient: retry heals it
    EXPECT_TRUE(f.activeAt(5, 0));
    EXPECT_FALSE(f.activeAt(6, 0));
    f.attempts = Fault::kAllAttempts;
    EXPECT_TRUE(f.activeAt(5, 7));  // persistent: survives every retry
}

TEST(FaultPlan, KindTaxonomyRoundTripsThroughTheSentinel) {
    // Every kind up to the kLast sentinel must have a unique name that
    // parses back — adding a kind without wiring it can no longer pass.
    std::set<std::string> names;
    for (int k = 0; k <= static_cast<int>(FaultKind::kLast); ++k) {
        const FaultKind kind = static_cast<FaultKind>(k);
        const std::string name{toString(kind)};
        EXPECT_NE(name, "?") << "kind " << k << " missing from toString";
        EXPECT_TRUE(names.insert(name).second) << "duplicate kind name: " << name;
        EXPECT_EQ(faultKindFromString(name), kind);
    }
    // The semantic attack-zoo kinds are part of the taxonomy.
    EXPECT_EQ(names.count("oversized-object"), 1u);
    EXPECT_EQ(names.count("inject-junk"), 1u);
    EXPECT_EQ(names.count("chain-graft"), 1u);
    EXPECT_THROW((void)faultKindFromString("meteor"), ParseError);
}

TEST(FaultPlan, PackFieldRoundTripsAndLegacyPlansStillParse) {
    FaultPlan plan = samplePlan();
    plan.pack = "stalloris-drain";
    plan.faults.push_back({FaultKind::OversizedObject, "rpki://org/", "manifest.mft", 4, 2,
                           Fault::kAllAttempts, 4096});
    plan.faults.push_back(
        {FaultKind::InjectJunk, "rpki://org/", "junk.bin", 5, 1, Fault::kAllAttempts, 64});
    plan.faults.push_back(
        {FaultKind::ChainGraft, "rpki://org/", "manifest.7.mft", 6, 1, Fault::kAllAttempts, 6});
    const std::string text = plan.serialize();
    EXPECT_NE(text.find("pack=stalloris-drain"), std::string::npos);
    EXPECT_EQ(FaultPlan::parse(text), plan);
    // A pack-free plan never mentions pack=, so pre-attack-zoo plan files
    // keep round-tripping byte-identically.
    EXPECT_EQ(samplePlan().serialize().find("pack="), std::string::npos);
    EXPECT_EQ(FaultPlan::parse(samplePlan().serialize()).pack, "");
}

// ---------------------------------------------------------------------------
// Per-RP sub-seeding (fleet members must never alias fault plans)

TEST(MemberSeed, GridOfDerivedSeedsIsCollisionFree) {
    std::set<std::uint64_t> seen;
    for (std::uint64_t master = 0; master < 64; ++master) {
        for (std::uint32_t rp = 0; rp < 64; ++rp) {
            EXPECT_TRUE(seen.insert(deriveMemberSeed(master, rp)).second)
                << "master=" << master << " rp=" << rp;
        }
    }
    // Derived seeds never collide with their own master either.
    for (std::uint64_t master = 0; master < 64; ++master) {
        for (std::uint32_t rp = 0; rp < 64; ++rp) {
            EXPECT_NE(deriveMemberSeed(master, rp), master);
        }
    }
}

TEST(MemberSeed, AdjacentMembersGetIndependentStreams) {
    // The classic aliasing hazard: seed+i for member i makes member 1 of
    // master s replay member 0 of master s+1. The mixed derivation breaks
    // that, and the resulting RNG streams diverge immediately.
    EXPECT_NE(deriveMemberSeed(100, 1), deriveMemberSeed(101, 0));
    Rng a(deriveMemberSeed(7, 0));
    Rng b(deriveMemberSeed(7, 1));
    bool diverged = false;
    for (int i = 0; i < 8; ++i) diverged = diverged || a.nextU64() != b.nextU64();
    EXPECT_TRUE(diverged);
}

TEST(MemberSeed, DerivationIsDeterministic) {
    EXPECT_EQ(deriveMemberSeed(42, 3), deriveMemberSeed(42, 3));
}

// ---------------------------------------------------------------------------
// SyncEngine under scheduled faults

struct World {
    Repository repo;
    AuthorityDirectory dir{121,
                           AuthorityOptions{.ts = 4, .signerHeight = 6,
                                            .manifestLifetime = 1000}};
    SimClock clock;
    Authority* root;
    Authority* org;

    World() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
        org->issueRoa("r1", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    }
};

TEST(SyncEngine, TransientFaultsAreAbsorbedWithoutAlarms) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    // A glitch on the first attempt of rounds 1 and 2: one retry heals it.
    chaos.addFault({FaultKind::DropPoint, orgPoint, "", 1, 2, 1, 0});

    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 3});

    for (int round = 0; round < 4; ++round) {
        engine.syncRound(w.clock.now());
        // Health is a per-round verdict: Degraded while retries were
        // needed (rounds 1-2), Healthy on clean first-attempt rounds.
        EXPECT_EQ(engine.healthOf(orgPoint),
                  (round == 1 || round == 2) ? PointHealth::Degraded : PointHealth::Healthy)
            << "round " << round;
        w.clock.advance(1);
        w.org->refreshManifest(w.repo, w.clock.now());
    }

    const std::optional<rp::PointTelemetry> pt = engine.telemetryFor(orgPoint);
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(pt->roundsDelivered, 4u);       // every round ultimately delivered
    EXPECT_EQ(pt->roundsFailed, 0u);
    EXPECT_EQ(pt->retries, 2u);               // one retry per glitched round
    EXPECT_EQ(pt->faultsAbsorbed, 2u);
    EXPECT_GT(pt->backoffSpent, 0);
    EXPECT_EQ(pt->rejections.at(FetchOutcome::Unreachable), 2u);
    EXPECT_EQ(engine.totals().retries, 2u);
    EXPECT_EQ(engine.totals().faultsAbsorbed, 2u);

    // Absorbed faults are invisible to the relying party: no alarms, no
    // staleness, full validity.
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_FALSE(alice.isPointStale(orgPoint));
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(SyncEngine, AttemptBudgetOutsideOneToThirtyTwoIsAUsageError) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault({FaultKind::DropPoint, orgPoint, "", 0, 1, Fault::kAllAttempts, 0});
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});

    // 33 attempts reach retry 32; 0 is what a wrapped retryBudget + 1 gives.
    EXPECT_THROW(SyncEngine(alice, chaos, SyncPolicy{.maxAttempts = 33}), UsageError);
    EXPECT_THROW(SyncEngine(alice, chaos, SyncPolicy{.maxAttempts = 0}), UsageError);

    // At the bound, a point that fails every attempt doubles its backoff
    // through retry 31: 1 + 2 + ... + 2^30 ticks.
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = SyncPolicy::kMaxAttempts});
    const rp::SyncReport rep = engine.syncRound(w.clock.now());
    EXPECT_EQ(rep.retries, 31u);  // all org's: root delivers first try
    EXPECT_EQ(rep.backoffSpent, (Duration{1} << 31) - 1);
}

TEST(SyncEngine, BudgetExhaustionDegradesGracefullyAndQuarantines) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    // Persistently unreachable from round 1 for 4 rounds.
    chaos.addFault({FaultKind::DropPoint, orgPoint, "", 1, 4, Fault::kAllAttempts, 0});

    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 3, .quarantineAfter = 3});

    engine.syncRound(w.clock.now());  // round 0: honest
    ASSERT_EQ(alice.validRoas().size(), 1u);

    std::vector<PointHealth> healthByRound;
    std::vector<std::uint64_t> attemptsByRound;
    for (int round = 1; round <= 4; ++round) {
        w.clock.advance(1);
        const rp::SyncReport rep = engine.syncRound(w.clock.now());
        healthByRound.push_back(engine.healthOf(orgPoint));
        attemptsByRound.push_back(rep.attempts);
        // §5.3.2 graceful degradation: the cache keeps serving.
        EXPECT_EQ(alice.validRoas().size(), 1u) << "round " << round;
    }
    EXPECT_EQ(healthByRound[0], PointHealth::Stale);
    EXPECT_EQ(healthByRound[1], PointHealth::Stale);
    EXPECT_EQ(healthByRound[2], PointHealth::Quarantined);
    EXPECT_EQ(healthByRound[3], PointHealth::Quarantined);
    // Quarantine cuts the attempt budget to 1 (Stalloris resource lesson).
    // Per-round attempts include root's point, delivered first try (+1).
    EXPECT_EQ(attemptsByRound[0], 4u);  // org: full budget of 3
    EXPECT_EQ(attemptsByRound[3], 2u);  // org: quarantined, 1 attempt
    // The relying party knows, via the prescribed unaccountable channel.
    EXPECT_TRUE(alice.isPointStale(orgPoint));
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    for (const auto& a : alice.alarms().all()) {
        EXPECT_FALSE(a.accountable) << a.str();
    }

    // Round 5: the fault window ends; one clean round recovers the point.
    w.clock.advance(1);
    engine.syncRound(w.clock.now());
    EXPECT_EQ(engine.healthOf(orgPoint), PointHealth::Degraded);  // just out of quarantine
    EXPECT_FALSE(alice.isPointStale(orgPoint));
    const std::optional<rp::PointTelemetry> pt = engine.telemetryFor(orgPoint);
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(pt->recoveries, 1u);
    EXPECT_EQ(pt->longestStaleStreak, 4u);
}

TEST(SyncEngine, QuarantineCountsOnlyThePointsTheRoundReached) {
    // org's point is unreachable in rounds 0-3 and quarantined from round
    // 2; root revokes org in round 3. From then on the walk no longer
    // reaches org's point, so neither the report nor the gauge counts it.
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault({FaultKind::DropPoint, orgPoint, "", 0, 4, Fault::kAllAttempts, 0});
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine engine(alice, chaos, SyncPolicy{}, &registry);
    const obs::Gauge& quarantined = registry.gauge(
        "rc_sync_points", "", {{"rp", "alice"}, {"health", "quarantined"}});

    for (int round = 0; round < 8; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        if (round == 3) {
            w.root->revokeChild("org", w.dir.collectRevocationConsent(*w.org), w.repo,
                                w.clock.now());
        }
        const rp::SyncReport rep = engine.syncRound(w.clock.now());
        const std::size_t expected = round == 2 ? 1 : 0;
        EXPECT_EQ(rep.pointsQuarantined, expected);
        EXPECT_EQ(quarantined.value(), static_cast<std::int64_t>(expected));
        w.clock.advance(1);
    }
    EXPECT_EQ(engine.healthOf(orgPoint), PointHealth::Quarantined);  // where the walk left it
}

TEST(SyncEngine, StallorisStaleServingIsRefusedNeverSilent) {
    // The Stalloris pattern: after the relying party has seen manifest
    // number N, the repository alternates serving the old state (a pin to
    // an earlier round) and withholding the manifest. The engine must
    // refuse both — leaving the point visibly stale with a
    // missing-information alarm — and must never silently revert validity
    // to the older object set.
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault({FaultKind::ServeStale, orgPoint, "", 2, 1, Fault::kAllAttempts, 0});
    chaos.addFault(
        {FaultKind::WithholdManifest, orgPoint, "", 3, 1, Fault::kAllAttempts, 0});
    chaos.addFault({FaultKind::ServeStale, orgPoint, "", 4, 1, Fault::kAllAttempts, 0});

    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    // quarantineAfter above the window so the full budget is probed.
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 2, .quarantineAfter = 5});

    engine.syncRound(w.clock.now());  // round 0: r1 valid
    ASSERT_EQ(alice.validRoas().size(), 1u);

    w.clock.advance(1);  // round 1: r2 published; engine accepts the new manifest
    w.org->issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, w.repo, w.clock.now());
    engine.syncRound(w.clock.now());
    ASSERT_EQ(alice.validRoas().size(), 2u);

    for (int round = 2; round <= 4; ++round) {  // the Stalloris rounds
        w.clock.advance(1);
        engine.syncRound(w.clock.now());
        // Never a silent revert: both ROAs stay valid from the cache.
        EXPECT_EQ(alice.validRoas().size(), 2u) << "round " << round;
        // And never silent: the point is flagged stale.
        EXPECT_TRUE(alice.isPointStale(orgPoint)) << "round " << round;
        EXPECT_EQ(engine.healthOf(orgPoint), PointHealth::Stale) << "round " << round;
    }

    const std::optional<rp::PointTelemetry> pt = engine.telemetryFor(orgPoint);
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(pt->rejections.at(FetchOutcome::Regressed), 4u);        // 2 stale rounds x 2
    EXPECT_EQ(pt->rejections.at(FetchOutcome::ManifestMissing), 2u);  // withhold round
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    for (const auto& a : alice.alarms().all()) {
        EXPECT_FALSE(a.accountable) << a.str();  // nothing accusable happened
    }

    // Round 5: honest again; the pin is gone and the point recovers.
    w.clock.advance(1);
    engine.syncRound(w.clock.now());
    EXPECT_FALSE(alice.isPointStale(orgPoint));
    EXPECT_EQ(alice.validRoas().size(), 2u);
}

TEST(SyncEngine, PermutedFileNamesAreFoundByContentOnFirstAttempt) {
    // A mirror serves every logged object under another logged name (a
    // cyclic permutation). Each object is still present and hash-correct,
    // so the point is accepted at once and the relying party ends in the
    // same state as a twin fed the honest point.
    World w;
    w.org->issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, w.repo, w.clock.now());
    w.org->issueRoa("r3", 64502, {{pfx("10.1.32.0/20"), 24}}, w.repo, w.clock.now());
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;

    const FileMap clean = *honest.fetchPoint(orgPoint, 0, 0);
    const Bytes& wire = clean.at(kManifestName);
    const Manifest m = Manifest::decode(ByteView(wire.data(), wire.size()));
    ASSERT_GE(m.entries.size(), 3u);
    FileMap permuted = clean;
    for (std::size_t i = 0; i < m.entries.size(); ++i) {
        const std::string& to = m.entries[(i + 1) % m.entries.size()].filename;
        permuted[to] = clean.at(m.entries[i].filename);
        ASSERT_NE(permuted[to], clean.at(to));
    }
    chaos.setOverlay(orgPoint, 0, permuted);

    obs::Registry registry;
    obs::Registry twinRegistry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    RelyingParty twin("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &twinRegistry);
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 3}, &registry);
    SyncEngine twinEngine(twin, honest, SyncPolicy{.maxAttempts = 3}, &twinRegistry);

    const rp::SyncReport report = engine.syncRound(w.clock.now());
    twinEngine.syncRound(w.clock.now());
    EXPECT_EQ(chaos.overlayApplications(), 1u);
    EXPECT_EQ(report.pointsDelivered, report.pointsListed);
    EXPECT_EQ(report.attempts, report.pointsListed);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_EQ(engine.healthOf(orgPoint), PointHealth::Healthy);
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 3u);
    EXPECT_EQ(alice.serializeState(), twin.serializeState());
}

// ---------------------------------------------------------------------------
// A warm engine compares files against what its relying party verified
// instead of hashing them; a delivery that differs from those bytes must
// be judged exactly as a cold engine judges it.

/// Applies `tamper` to one point's files on the first attempt of one round.
class TamperFirstAttempt final : public SnapshotSource {
public:
    TamperFirstAttempt(SnapshotSource& inner, std::string pointUri, std::uint64_t round,
                       std::function<void(FileMap&)> tamper)
        : inner_(inner), pointUri_(std::move(pointUri)), round_(round), tamper_(std::move(tamper)) {}

    std::vector<std::string> listPoints(std::uint64_t round) override {
        return inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override {
        auto files = inner_.fetchPoint(pointUri, round, attempt);
        if (files.has_value() && pointUri == pointUri_ && round == round_ && attempt == 0) {
            tamper_(*files);
        }
        return files;
    }

private:
    SnapshotSource& inner_;
    std::string pointUri_;
    std::uint64_t round_;
    std::function<void(FileMap&)> tamper_;
};

std::uint64_t mismatches(const SyncEngine& engine, const std::string& pointUri) {
    const auto pt = engine.telemetryFor(pointUri);
    if (!pt.has_value()) return 0;
    const auto it = pt->rejections.find(FetchOutcome::LoggedObjectMismatch);
    return it == pt->rejections.end() ? 0 : it->second;
}

TEST(SyncEngine, HeldBytesUnderANewLoggedHashAreAMismatch) {
    // The rsync race: org re-issues r1.roa, and the first attempt of the
    // next round gets the new manifest beside r1.roa's previous bytes.
    // Those bytes equal the warm relying party's copy, but the new manifest
    // logs another hash under that name, so they are hashed and refused.
    World w;
    RepositorySource honest(w.repo);
    const std::string orgPoint = w.org->cert().pubPointUri;
    const Bytes previous = honest.fetchPoint(orgPoint, 0, 0)->at("r1.roa");
    TamperFirstAttempt torn(honest, orgPoint, 1,
                            [&](FileMap& files) { files["r1.roa"] = previous; });

    obs::Registry registry;
    RelyingParty warm("warm", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    RelyingParty cold("cold", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine warmEngine(warm, torn, SyncPolicy{.maxAttempts = 3}, &registry);
    SyncEngine coldEngine(cold, torn, SyncPolicy{.maxAttempts = 3}, &registry);
    warmEngine.syncRound(w.clock.now());
    ASSERT_TRUE(warm.heldPoint(orgPoint).has_value());
    coldEngine.resumeAt(1);

    w.clock.advance(1);
    w.org->issueRoa("r1", 64500, {{pfx("10.1.0.0/20"), 23}}, w.repo, w.clock.now());
    const Bytes reissued = w.repo.point(orgPoint)->at("r1.roa");
    ASSERT_NE(reissued, previous);

    for (SyncEngine* engine : {&warmEngine, &coldEngine}) {
        const rp::SyncReport report = engine->syncRound(w.clock.now());
        const RelyingParty& rp = engine->relyingParty();
        SCOPED_TRACE(rp.name());
        EXPECT_EQ(report.retries, 1u);
        EXPECT_EQ(report.pointsFailed, 0u);
        EXPECT_EQ(mismatches(*engine, orgPoint), 1u);
        EXPECT_EQ(engine->healthOf(orgPoint), PointHealth::Degraded);
        EXPECT_EQ(rp.alarms().count(), 0u);
        ASSERT_TRUE(rp.heldPoint(orgPoint).has_value());
        EXPECT_EQ(rp.heldPoint(orgPoint)->files.at("r1.roa"), reissued);
        ASSERT_EQ(rp.validRoas().size(), 1u);
        EXPECT_EQ(rp.validRoas()[0].prefixes[0].maxLength, 23);
    }
}

TEST(SyncEngine, ABitFlipInAnUnchangedFileFailsAWarmProbe) {
    World w;
    RepositorySource honest(w.repo);
    const std::string orgPoint = w.org->cert().pubPointUri;
    TamperFirstAttempt flipped(honest, orgPoint, 1, [](FileMap& files) {
        Bytes& roa = files.at("r1.roa");
        roa[roa.size() / 2] ^= 0x01;
    });
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    SyncEngine engine(alice, flipped, SyncPolicy{.maxAttempts = 3}, &registry);
    engine.syncRound(w.clock.now());
    ASSERT_TRUE(alice.heldPoint(orgPoint).has_value());

    // Nothing changed at org: only the flipped copy differs from the held one.
    w.clock.advance(1);
    const rp::SyncReport report = engine.syncRound(w.clock.now());
    EXPECT_EQ(report.retries, 1u);
    EXPECT_EQ(mismatches(engine, orgPoint), 1u);
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.heldPoint(orgPoint)->files.at("r1.roa"),
              honest.fetchPoint(orgPoint, 1, 0)->at("r1.roa"));
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(SyncEngine, RenamedFilesAreFoundByContentOnAWarmEngine) {
    // The permutation test above, one round later: every logged object is
    // served under another logged name, so no file equals the held copy
    // under its name and each is found by its hash.
    World w;
    w.org->issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, w.repo, w.clock.now());
    w.org->issueRoa("r3", 64502, {{pfx("10.1.32.0/20"), 24}}, w.repo, w.clock.now());
    RepositorySource honest(w.repo);
    const std::string orgPoint = w.org->cert().pubPointUri;
    TamperFirstAttempt renamed(honest, orgPoint, 1, [](FileMap& files) {
        const Bytes& wire = files.at(kManifestName);
        const Manifest m = Manifest::decode(ByteView(wire.data(), wire.size()));
        const FileMap clean = files;
        for (std::size_t i = 0; i < m.entries.size(); ++i) {
            files[m.entries[(i + 1) % m.entries.size()].filename] =
                clean.at(m.entries[i].filename);
        }
    });

    obs::Registry registry;
    obs::Registry twinRegistry;
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &registry);
    RelyingParty twin("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8}, &twinRegistry);
    SyncEngine engine(alice, renamed, SyncPolicy{.maxAttempts = 3}, &registry);
    SyncEngine twinEngine(twin, honest, SyncPolicy{.maxAttempts = 3}, &twinRegistry);
    for (int round = 0; round < 2; ++round) {
        const rp::SyncReport report = engine.syncRound(w.clock.now());
        twinEngine.syncRound(w.clock.now());
        EXPECT_EQ(report.retries, 0u) << "round " << round;
        EXPECT_EQ(engine.healthOf(orgPoint), PointHealth::Healthy) << "round " << round;
        w.clock.advance(1);
        w.org->refreshManifest(w.repo, w.clock.now());
    }
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 3u);
    EXPECT_EQ(alice.serializeState(), twin.serializeState());
}

/// Round 0 syncs org, `move` moves org's head at round 1 without keeping
/// the new manifest's bytes, and round 2 serves round 0's point again. The
/// replayed manifest must be judged by its own number, below the floor:
/// if the relying party still held round 0's bytes as its head's, the
/// replay would pass as the new head.
void expectReplayAfterHeadMoveRegresses(RpOptions options,
                                        const std::function<void(World&)>& move) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault({FaultKind::ServeStale, orgPoint, "", 2, 1, Fault::kAllAttempts, 0});
    obs::Registry registry;
    RelyingParty alice("alice", {w.root->cert()}, options, &registry);
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 2, .quarantineAfter = 5},
                      &registry);
    engine.syncRound(w.clock.now());
    ASSERT_TRUE(alice.heldPoint(orgPoint).has_value());

    w.clock.advance(1);
    move(w);
    engine.syncRound(w.clock.now());
    EXPECT_FALSE(alice.heldPoint(orgPoint).has_value());

    w.clock.advance(1);
    const rp::SyncReport report = engine.syncRound(w.clock.now());
    EXPECT_EQ(report.pointsFailed, 1u);
    const std::optional<rp::PointTelemetry> pt = engine.telemetryFor(orgPoint);
    EXPECT_EQ(pt->rejections.at(FetchOutcome::Regressed), 2u);
    EXPECT_TRUE(alice.isPointStale(orgPoint));
}

TEST(SyncEngine, ANaiveHeadChangeForgetsTheHeadBytes) {
    // §5.6's naive relying party diffs straight to the new head.
    expectReplayAfterHeadMoveRegresses(
        RpOptions{.ts = 4, .tg = 8, .checkIntermediateStates = false},
        [](World& w) { w.org->refreshManifest(w.repo, w.clock.now()); });
}

TEST(SyncEngine, APostRolloverHeadForgetsTheHeadBytes) {
    // A post-rollover manifest logs nothing while the point keeps its last
    // normal files. This one names a successor nobody issued (Check1).
    expectReplayAfterHeadMoveRegresses(RpOptions{.ts = 4, .tg = 8}, [](World& w) {
        w.org->unsafeBogusPostRollover(w.repo, w.clock.now());
    });
}

TEST(SyncEngine, AChildPublishedThisRoundIsFetchedThisRound) {
    // org logs a new child RC and the child publishes its first manifest
    // and a ROA before the next round: that round reaches the new point
    // through org's manifest, fetches it once and validates its ROA.
    World w;
    RepositorySource honest(w.repo);
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    SyncEngine engine(alice, honest, SyncPolicy{.maxAttempts = 3});
    engine.syncRound(w.clock.now());
    ASSERT_EQ(alice.validRoas().size(), 1u);

    w.clock.advance(1);
    Authority& site = w.dir.createChild(
        *w.org, "site", ResourceSet::ofPrefixes({pfx("10.1.16.0/20")}), w.repo, w.clock.now());
    site.issueRoa("s1", 64510, {{pfx("10.1.16.0/24"), 24}}, w.repo, w.clock.now());
    const rp::SyncReport report = engine.syncRound(w.clock.now());

    const std::optional<rp::PointTelemetry> pt = engine.telemetryFor(site.pubPointUri());
    ASSERT_TRUE(pt.has_value());
    EXPECT_EQ(pt->attempts, 1u);
    EXPECT_EQ(pt->roundsDelivered, 1u);
    EXPECT_EQ(report.pointsDelivered, 3u);
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 2u);
    EXPECT_EQ(report.validRoas, 2u);
    EXPECT_TRUE(alice.heldPoint(site.pubPointUri()).has_value());
}

// ---------------------------------------------------------------------------
// Semantic attack-zoo kinds and overlays (the adversary packs schedule
// these; here each ChaosSource mechanism is pinned in isolation)

TEST(ChaosSource, OversizedObjectServesDeterministicGarbage) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault({FaultKind::OversizedObject, orgPoint, "manifest.mft", 1, 1,
                    Fault::kAllAttempts, 4096});

    const auto clean = chaos.fetchPoint(orgPoint, 0, 0);
    ASSERT_TRUE(clean.has_value());
    const auto hit = chaos.fetchPoint(orgPoint, 1, 0);
    ASSERT_TRUE(hit.has_value());
    const Bytes& blob = hit->at("manifest.mft");
    EXPECT_EQ(blob.size(), 4096u);
    EXPECT_NE(blob, clean->at("manifest.mft"));
    EXPECT_GT(chaos.faultApplications(), 0u);
    // The blob is attempt-stable and replay-stable: a fresh source running
    // the same plan serves it bit for bit.
    EXPECT_EQ(chaos.fetchPoint(orgPoint, 1, 1)->at("manifest.mft"), blob);
    RepositorySource honestAgain(w.repo);
    ChaosSource replay(honestAgain, chaos.plan());
    EXPECT_EQ(replay.fetchPoint(orgPoint, 1, 0)->at("manifest.mft"), blob);
}

TEST(ChaosSource, InjectedJunkIsAdditiveAndRaisesNothing) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    chaos.addFault(
        {FaultKind::InjectJunk, orgPoint, "evil.bin", 1, 2, Fault::kAllAttempts, 64});

    const auto clean = chaos.fetchPoint(orgPoint, 0, 0);
    ASSERT_TRUE(clean.has_value());
    EXPECT_EQ(clean->count("evil.bin"), 0u);
    const auto hit = chaos.fetchPoint(orgPoint, 1, 0);
    ASSERT_TRUE(hit.has_value());
    ASSERT_EQ(hit->count("evil.bin"), 1u);
    EXPECT_EQ(hit->at("evil.bin").size(), 64u);
    for (const auto& [name, bytes] : *clean) {
        EXPECT_EQ(hit->at(name), bytes) << name << " was not left intact";
    }

    // A relying party must shrug: a file the manifest never logged is not
    // an alarm condition (the packs' built-in false-positive probe).
    RelyingParty alice("alice", {w.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    SyncEngine engine(alice, chaos, SyncPolicy{.maxAttempts = 2});
    for (int round = 0; round < 3; ++round) {
        engine.syncRound(w.clock.now());
        w.clock.advance(1);
        w.org->refreshManifest(w.repo, w.clock.now());
    }
    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(ChaosSource, ChainGraftSwapsOrDropsPreservedManifests) {
    World w;
    // Two refreshes give the point preserved copies of two old manifests.
    const std::uint64_t m0 = w.org->manifestNumber();
    w.clock.advance(1);
    w.org->refreshManifest(w.repo, w.clock.now());
    w.clock.advance(1);
    w.org->refreshManifest(w.repo, w.clock.now());
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    const std::string victim = preservedManifestName(m0 + 1);

    const auto clean = chaos.fetchPoint(orgPoint, 0, 0);
    ASSERT_TRUE(clean.has_value());
    ASSERT_EQ(clean->count(victim), 1u);
    ASSERT_EQ(clean->count(preservedManifestName(m0)), 1u);

    // Graft: the preserved link's bytes become another manifest's.
    chaos.addFault(
        {FaultKind::ChainGraft, orgPoint, victim, 1, 1, Fault::kAllAttempts, m0});
    const auto grafted = chaos.fetchPoint(orgPoint, 1, 0);
    ASSERT_TRUE(grafted.has_value());
    EXPECT_EQ(grafted->at(victim), clean->at(preservedManifestName(m0)));

    // Graft from an absent source: the link is cut instead.
    chaos.addFault(
        {FaultKind::ChainGraft, orgPoint, victim, 2, 1, Fault::kAllAttempts, m0 + 900});
    const auto cut = chaos.fetchPoint(orgPoint, 2, 0);
    ASSERT_TRUE(cut.has_value());
    EXPECT_EQ(cut->count(victim), 0u);
}

TEST(ChaosSource, OverlaysReplaceDeliveryWholesaleForOneRound) {
    World w;
    RepositorySource honest(w.repo);
    ChaosSource chaos(honest, FaultPlan{});
    const std::string orgPoint = w.org->cert().pubPointUri;
    FileMap forged;
    forged["mirror.bin"] = Bytes{1, 2, 3};
    chaos.setOverlay(orgPoint, 1, forged);

    const auto before = chaos.fetchPoint(orgPoint, 0, 0);
    ASSERT_TRUE(before.has_value());
    EXPECT_EQ(before->count("mirror.bin"), 0u);
    EXPECT_EQ(chaos.overlayApplications(), 0u);

    const auto during = chaos.fetchPoint(orgPoint, 1, 0);
    ASSERT_TRUE(during.has_value());
    EXPECT_EQ(*during, forged);  // wholesale: honest files are gone
    EXPECT_EQ(chaos.overlayApplications(), 1u);
    // Attempt-granular accounting, identical content per attempt.
    EXPECT_EQ(*chaos.fetchPoint(orgPoint, 1, 1), forged);
    EXPECT_EQ(chaos.overlayApplications(), 2u);

    const auto after = chaos.fetchPoint(orgPoint, 2, 0);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->count("mirror.bin"), 0u);  // scoped to its round
}

// ---------------------------------------------------------------------------
// Soak harness

TEST(ChaosSoak, SeedsPassAndPlansReplayIdentically) {
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
        sim::SoakConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 15;
        const sim::SoakResult first = sim::runSoak(cfg);
        EXPECT_TRUE(first.passed) << "seed " << seed << ": " << first.violations.size()
                                  << " violations";
        EXPECT_GT(first.stats.faultApplications, 0u) << "chaos never fired?";

        // Text round-trip, then replay: the outcome must be identical.
        const FaultPlan parsed = FaultPlan::parse(first.plan.serialize());
        EXPECT_EQ(parsed, first.plan);
        const sim::SoakResult again = sim::runSoakWithPlan(parsed);
        EXPECT_EQ(again.passed, first.passed);
        EXPECT_EQ(again.violations, first.violations);
        EXPECT_EQ(again.stats.faultApplications, first.stats.faultApplications);
        EXPECT_EQ(again.stats.attempts, first.stats.attempts);
        EXPECT_EQ(again.stats.retries, first.stats.retries);
        EXPECT_EQ(again.stats.faultsAbsorbed, first.stats.faultsAbsorbed);
        EXPECT_EQ(again.stats.pointRoundsFailed, first.stats.pointRoundsFailed);
        EXPECT_EQ(again.stats.alarms, first.stats.alarms);
        EXPECT_EQ(again.stats.accountableAlarms, first.stats.accountableAlarms);
        EXPECT_EQ(again.stats.validRoasFinal, first.stats.validRoasFinal);
        EXPECT_EQ(again.plan, first.plan);
    }
}

TEST(ChaosSoak, RetryBudgetZeroDemonstrablyDegrades) {
    sim::SoakConfig strong;
    strong.seed = 11;
    strong.rounds = 20;
    strong.retryBudget = 2;
    sim::SoakConfig weak = strong;
    weak.retryBudget = 0;

    const sim::SoakResult s = sim::runSoak(strong);
    const sim::SoakResult w = sim::runSoak(weak);
    EXPECT_TRUE(s.passed);
    EXPECT_TRUE(w.passed);  // transparency invariants hold even weakened
    // ...but delivery is demonstrably worse: no absorbed faults, more
    // rounds on stale cache.
    EXPECT_GT(s.stats.faultsAbsorbed, 0u);
    EXPECT_EQ(w.stats.faultsAbsorbed, 0u);
    EXPECT_EQ(w.stats.retries, 0u);
    EXPECT_GT(w.stats.pointRoundsFailed, s.stats.pointRoundsFailed);
}

TEST(ChaosSoak, HonestWorldRaisesNoAccountableAlarms) {
    // Invariant I6 armed: all-honest authorities, full chaos. Every alarm
    // must stay in the unaccountable (missing-information) class.
    sim::SoakConfig cfg;
    cfg.seed = 5;
    cfg.rounds = 20;
    cfg.adversarialProbability = 0.0;
    cfg.faultRate = 0.5;
    const sim::SoakResult r = sim::runSoak(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.stats.accountableAlarms, 0u);
    EXPECT_GT(r.stats.faultApplications, 0u);
}

}  // namespace
}  // namespace rpkic
