// Harness core (sim/harness.hpp): the one restart path every harness
// recovers through — nothing durable yet, a committed payload (I8 plus
// resume plus Stalloris floor), and a store whose reopen fails, which must
// come back as a violation rather than an exception — and the run
// context's shared bundle cap.
#include <gtest/gtest.h>

#include <string>

#include "sim/driver.hpp"
#include "sim/harness.hpp"
#include "util/vfs.hpp"

namespace rpkic::sim {
namespace {

/// One relying-party process over a seeded honest world, persisted to a
/// MemVfs-backed store.
struct Rig {
    RandomScheduleDriver driver{worldConfig(3, 0.0, 8)};
    RepositorySource source{driver.repo()};
    obs::Registry registry;
    MemberProcess process{"member", driver.trustAnchors(), source, 2, &registry, nullptr};
    vfs::MemVfs& fs = *process.attachStore(nullptr, "state", {}, 3);

    void syncRounds(std::uint64_t rounds) {
        for (std::uint64_t r = process.engine().round(); r < rounds; ++r) {
            if (r > 0) driver.step(static_cast<Time>(r));
            ASSERT_TRUE(process.sync(static_cast<Time>(r)).ok());
        }
    }
};

TEST(MemberRestart, NothingDurableRestartsFromTheTrustAnchors) {
    Rig rig;
    const MemberProcess::Restart rs = rig.process.restart();
    EXPECT_TRUE(rs.ok()) << rs.violation;
    EXPECT_TRUE(rs.opened);
    EXPECT_FALSE(rs.restored);
    ASSERT_TRUE(rig.process.alive());
    EXPECT_EQ(rig.process.engine().round(), 0u);
    EXPECT_TRUE(rig.process.rp().exportManifestClaims().empty());
    rig.syncRounds(2);  // the fresh process syncs like round 0 did
}

TEST(MemberRestart, CommittedPayloadRestoresResumesAndReseedsTheFloor) {
    Rig rig;
    rig.syncRounds(3);
    const Bytes before = rig.process.rp().serializeState();
    rig.process.kill();
    EXPECT_FALSE(rig.process.alive());

    const MemberProcess::Restart rs = rig.process.restart();
    EXPECT_TRUE(rs.ok()) << rs.violation;
    EXPECT_TRUE(rs.restored);
    EXPECT_TRUE(rs.recovery.recovered);
    ASSERT_TRUE(rig.process.alive());
    EXPECT_EQ(rig.process.rp().serializeState(), before);  // I8
    EXPECT_EQ(rig.process.engine().round(), 3u);           // resumed, not restarted
    const auto claims = rig.process.rp().exportManifestClaims();
    ASSERT_FALSE(claims.empty());
    for (const rp::ManifestClaim& claim : claims) {
        const std::optional<rp::PointTelemetry> pt =
            rig.process.engine().telemetryFor(claim.pointUri);
        ASSERT_TRUE(pt.has_value()) << claim.pointUri;
        EXPECT_TRUE(pt->sawManifest);
        EXPECT_EQ(pt->highestManifestNumber, claim.number) << claim.pointUri;
    }
    rig.syncRounds(5);
    EXPECT_EQ(rig.process.store()->latestMeta(), 5u);

    // An explicit resume round overrides the recovered meta (fleet rejoin).
    EXPECT_TRUE(rig.process.restart(7).ok());
    EXPECT_EQ(rig.process.engine().round(), 7u);
}

TEST(MemberRestart, FailedReopenIsAViolationNotAnException) {
    Rig rig;
    rig.syncRounds(2);
    // The reopen cannot read the WAL.
    rig.fs.armReadFail();

    MemberProcess::Restart rs;
    EXPECT_NO_THROW(rs = rig.process.restart());
    EXPECT_FALSE(rs.ok());
    EXPECT_FALSE(rs.opened);
    EXPECT_NE(rs.violation.find("store recovery failed"), std::string::npos) << rs.violation;
    EXPECT_FALSE(rig.process.alive());

    // The fault was one-shot: the next restart recovers.
    rs = rig.process.restart();
    EXPECT_TRUE(rs.ok()) << rs.violation;
    EXPECT_TRUE(rs.recovery.recovered);
    EXPECT_EQ(rig.process.engine().round(), 2u);
}

TEST(RunContext, ViolationsAndCrashesShareTheBundleCap) {
    RunContext ctx("test", "test.run", "run", 9, nullptr, nullptr);
    ctx.capture("crash-realized", "seed-9-crash-1", {{"seed", "9"}});
    for (std::size_t i = 0; i < RunContext::kMaxBundles + 3; ++i) {
        ctx.violation("round " + std::to_string(i) + ": broken", {{"round", std::to_string(i)}});
    }
    EXPECT_EQ(ctx.violations.size(), RunContext::kMaxBundles + 3);
    ASSERT_EQ(ctx.postmortems.size(), RunContext::kMaxBundles);
    EXPECT_EQ(ctx.postmortems.front().label, "seed-9-crash-1");
    EXPECT_EQ(ctx.postmortems[1].label, "seed-9-violation-1");
    // Trigger, then exactly the seed, round and violation context rows.
    const std::string& bundle = ctx.postmortems[1].bytes;
    EXPECT_EQ(bundle.rfind("RPKIC-POSTMORTEM v1\n"
                           "trigger: invariant-fail\n"
                           "context: seed = 9\n"
                           "context: round = 0\n"
                           "context: violation = round 0: broken\n"
                           "-- scopes ",
                           0),
              0u)
        << bundle;
}

}  // namespace
}  // namespace rpkic::sim
