// Golden digests of every harness artifact: the chaos soak (plain, kill/
// restart, forced invariant failure, crash-plan replay), the crash sweep,
// the fleet (crashed + mirror-fed, and stalled), and every attack-zoo
// pack plus one disabled-detection failure. Each test renders what the
// harness returns — plans, epoch dumps, stats, scoreboards, /statusz
// rows, transcripts, oracle diffs, postmortem bundles — and pins the
// SHA-256 of the text. A refactor of the harnesses that keeps these
// digests keeps their observable behaviour byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "adversary/runner.hpp"
#include "crypto/sha256.hpp"
#include "fleet/fleet.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/serve/introspect.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"

namespace rpkic {
namespace {

std::string digest(const std::string& text) {
    return sha256(text).hex();
}

template <typename... Args>
std::string fmt(const char* format, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, format, args...);
    return buf;
}

std::string u(std::uint64_t v) {
    return std::to_string(v);
}

std::string soakStats(const sim::SoakResult& r) {
    const sim::SoakStats& s = r.stats;
    return "seed=" + u(r.seed) + " passed=" + u(r.passed) + " faults=" + u(s.faultsScheduled) +
           " hits=" + u(s.faultApplications) + " attempts=" + u(s.attempts) +
           " retries=" + u(s.retries) + " absorbed=" + u(s.faultsAbsorbed) +
           " failed=" + u(s.pointRoundsFailed) + " streak=" + u(s.maxStaleStreak) +
           " recoveries=" + u(s.recoveries) + fmt(" mean=%.6f", s.meanRecoveryRounds) +
           " alarms=" + u(s.alarms) + " accountable=" + u(s.accountableAlarms) +
           " twin=" + u(s.twinAlarms) + " roas=" + u(s.validRoasFinal) + "/" +
           u(s.twinValidRoasFinal) + " divergent=" + u(s.divergentCleanRounds) +
           " crashes=" + u(s.crashes) + " commits=" + u(s.storeCommits) +
           " recovered=" + u(s.storeRecoveries) + " torn=" + u(s.storeTornBytes) +
           " redone=" + u(s.roundsRedone) + "\n";
}

std::string scoreboard(const sim::SoakResult& r) {
    std::string out;
    for (const rp::SyncReport& round : r.rounds) {
        out += u(round.round) + " " + u(round.pointsListed) + " " + u(round.pointsDelivered) +
               " " + u(round.pointsFailed) + " " + u(round.pointsQuarantined) + " " +
               u(round.attempts) + " " + u(round.retries) + " " + u(round.faultsAbsorbed) +
               " " + u(round.alarmsRaised) + " " + u(round.validRoas) + "\n";
    }
    return out;
}

std::string violations(const std::vector<std::string>& lines) {
    std::string out;
    for (const std::string& v : lines) out += v + "\n";
    return out;
}

std::string bundles(const std::vector<obs::CapturedBundle>& captured) {
    std::string out;
    for (const obs::CapturedBundle& b : captured) {
        out += b.trigger + " " + b.label + "\n" + b.bytes;
    }
    return out;
}

struct SoakPins {
    const char* plan;
    const char* epochs;
    const char* stats;
    const char* scoreboard;
    const char* status;
};

void expectSoak(const sim::SoakResult& r, const obs::StatusBoard& board, const SoakPins& pin) {
    SCOPED_TRACE("seed " + u(r.seed));
    EXPECT_EQ(digest(r.plan.serialize()), pin.plan) << "plan";
    EXPECT_EQ(digest(r.epochDump), pin.epochs) << "epoch dump";
    EXPECT_EQ(digest(soakStats(r) + violations(r.violations)), pin.stats) << "stats";
    EXPECT_EQ(digest(scoreboard(r)), pin.scoreboard) << "scoreboard";
    EXPECT_EQ(digest(board.render()), pin.status) << "statusz rows";
}

sim::SoakResult soak(sim::SoakConfig cfg, obs::StatusBoard& board) {
    cfg.captureEpochs = true;
    cfg.status = &board;
    return sim::runSoak(cfg);
}

// ---------------------------------------------------------------------------
// Chaos soak

TEST(HarnessGolden, SmokeSoakSeedsOneAndTwo) {
    const SoakPins pins[] = {
        {.plan = "57f0ad87e3a78c7daa93e7cf8b096e84174c6f9c18e9996d2567e855bd355be9",
         .epochs = "f0236062eb95eab193679bd0a6c3047c1267571c8094d6444a89aefab1f26607",
         .stats = "62f11f6ad3ad55cdc5214b7f92231e81a70099db7677059ccf24d6178cfb95c5",
         .scoreboard = "992bb60a91cd4c0477a8f3de28501b8aee8d9b07be9f91d4f28466b9821504ce",
         .status = "ff35b352a90c2c06c86c932ccb2dd1b26df97b6cd652e7bb6f7fed8062d4f7b6"},
        {.plan = "689ac90b29ae1289d6c52d1ce1f68c07d96472fa6fb5192e7d535fac22dc14ac",
         .epochs = "fd32af83f0a837476cebd4fcc851735488b1cfd1298adcc88202d05c47fc5eba",
         .stats = "8caf200ccba55c3a737892a322b4f3ed419f046a2f6d721543c9d67943187b25",
         .scoreboard = "4f979ecef580259e0f12838c8873110080c1fdabc4d0e9e6e92cc42091b6f180",
         .status = "93caf9f48b1133420ece5227239aac85ea3c9a2e91826695210dd9902a21eb4f"},
    };
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        obs::StatusBoard board;
        sim::SoakConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 25;
        const sim::SoakResult r = soak(cfg, board);
        EXPECT_TRUE(r.passed);
        expectSoak(r, board, pins[seed - 1]);
    }
}

/// The kill/restart soak and its plan replay must produce the same bytes.
const SoakPins kKillRestartPins{
    .plan = "5c8e88469ade93bca293b3a7a2577a96f938dd70b8f626f215b9735473bcf150",
    .epochs = "f0236062eb95eab193679bd0a6c3047c1267571c8094d6444a89aefab1f26607",
    .stats = "1277bd971b52592753afb7259f24affe39d6b516091c87ce18643bdf5db66876",
    .scoreboard = "992bb60a91cd4c0477a8f3de28501b8aee8d9b07be9f91d4f28466b9821504ce",
    .status = "387480847ffb7da98c6d52e2b943700a64b45fb509c5fc9a2d4713b1b177bc8b"};

sim::SoakConfig killRestartConfig() {
    sim::SoakConfig cfg;
    cfg.seed = 1;
    cfg.rounds = 25;
    cfg.crashEvery = 3;
    return cfg;
}

TEST(HarnessGolden, KillRestartSoakWithCrashBundles) {
    obs::StatusBoard board;
    const sim::SoakResult r = soak(killRestartConfig(), board);
    EXPECT_TRUE(r.passed);
    EXPECT_GT(r.stats.crashes, 0u);
    expectSoak(r, board, kKillRestartPins);
    EXPECT_EQ(digest(bundles(r.postmortems)),
              "beb747f903be9111a275bcb944a6a5159cb792833b158d87161c14d6a9988cfa")
        << "crash-realized bundles";
}

TEST(HarnessGolden, CrashPlanReplayReproducesTheRun) {
    obs::StatusBoard genBoard;
    const sim::SoakResult generated = soak(killRestartConfig(), genBoard);
    const FaultPlan plan = FaultPlan::parse(generated.plan.serialize());
    sim::SoakConfig overrides;
    overrides.captureEpochs = true;
    obs::StatusBoard board;
    overrides.status = &board;
    const sim::SoakResult r = sim::runSoakWithPlan(plan, overrides);
    expectSoak(r, board, kKillRestartPins);
    EXPECT_EQ(r.epochDump, generated.epochDump);
    EXPECT_EQ(scoreboard(r), scoreboard(generated));
    EXPECT_EQ(bundles(r.postmortems), bundles(generated.postmortems));
}

TEST(HarnessGolden, ForcedInvariantFailureBundle) {
    obs::StatusBoard board;
    sim::SoakConfig cfg;
    cfg.seed = 2;
    cfg.rounds = 20;
    cfg.forceInvariantFail = true;
    const sim::SoakResult r = soak(cfg, board);
    EXPECT_FALSE(r.passed);
    expectSoak(r, board,
               {.plan = "a8443310bfbb7cdb08892500a189435081afd6bbd97e110417d2b5f2c108dd98",
                .epochs = "35f5d240f216311e6a0fef597552cb43726e7793e0a4c8ded2bda3725ddb7ca3",
                .stats = "d36baeb6ea0027ccca08b295d5aea32dc67474df7a5003b64a8d95a37ce3ad8c",
                .scoreboard = "005737c6b6786ded44fcac780049cf2e756c5c356c96106501e1aee9c69e2712",
                .status = "964f5335b8a8fefeffd433dfd7a4a4837b6242acea1b6312ced95f213054071d"});
    EXPECT_EQ(digest(bundles(r.postmortems)),
              "551d28c414520f69b0f6213e3fd1efcb1eb5d0634795da8a8ae35cbcb57a24f6")
        << "invariant-fail bundle";
}

// ---------------------------------------------------------------------------
// Crash sweep

TEST(HarnessGolden, CrashSweep) {
    obs::FlightRecorder recorder;
    sim::SweepConfig cfg;
    cfg.seed = 1;
    cfg.rounds = 4;
    cfg.recorder = &recorder;
    const sim::SweepResult r = sim::runCrashSweep(cfg);
    EXPECT_TRUE(r.passed);
    const std::string text = "points=" + u(r.crashPoints) + " fired=" + u(r.crashesFired) +
                             " pre=" + u(r.recoveredPre) + " post=" + u(r.recoveredPost) +
                             " none=" + u(r.recoveredNone) + " torn=" + u(r.tornBytes) +
                             " resumed=" + u(r.roundsResumed) + "\n" +
                             violations(r.violations) + bundles(r.postmortems);
    EXPECT_EQ(digest(text), "cc8ac9d891b4663c0976f57e868fae61cd1777849f5e9ee0c6ba46df05e6f052")
        << "sweep result";
    EXPECT_EQ(digest(obs::renderFlightEvents(recorder.snapshot())),
              "d5556937e2bbe8e864dbc4c9bf33725d0bc59732e0a8d5e3859c7bca84a0e8bb")
        << "flight events";
}

// ---------------------------------------------------------------------------
// Fleet

std::string fleetText(const fleet::FleetResult& r) {
    const fleet::FleetStats& s = r.stats;
    std::string out = r.transcript.serialize();
    out += "passed=" + u(r.passed) + " epochs=" + u(s.epochs) + " outputs=" + u(s.outputEpochs) +
           " unanimous=" + u(s.unanimousEpochs) + " noquorum=" + u(s.noQuorumEpochs) +
           " votes=" + u(s.votesCast) + " rejected=" + u(s.votesRejected) +
           " stale=" + u(s.votesStale) + " crashes=" + u(s.crashes) +
           " restarts=" + u(s.restarts) + " c=" + u(s.verdictsCrashed) +
           " s=" + u(s.verdictsStalled) + " m=" + u(s.verdictsMirrorFed) +
           " sent=" + u(s.messagesSent) + " delivered=" + u(s.messagesDelivered) +
           " roas=" + u(s.finalOutputRoas) + "/" + u(s.twinFinalRoas) + "\n";
    for (const rp::Alarm& a : r.alarms) out += a.str() + "\n";
    return out + violations(r.violations) + bundles(r.postmortems);
}

struct FleetPins {
    const char* result;
    const char* status;
    const char* bundle;  ///< flight events + registry digest after the run
};

void expectFleet(const char* faulty, std::uint64_t epochs, const FleetPins& pin) {
    SCOPED_TRACE(faulty);
    rc::parallel::Pool pool(2);
    obs::Registry registry;
    obs::FlightRecorder recorder;
    obs::StatusBoard board;
    fleet::FleetConfig cfg;
    cfg.seed = 1;
    cfg.members = 5;
    cfg.quorum = 3;
    cfg.epochs = epochs;
    cfg.faulty = fleet::MemberFaultSpec::parseSet(faulty);
    cfg.pool = &pool;
    cfg.registry = &registry;
    cfg.recorder = &recorder;
    cfg.status = &board;
    const fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(digest(fleetText(r)), pin.result) << "transcript, stats, alarms";
    EXPECT_EQ(digest(board.render()), pin.status) << "statusz rows";
    EXPECT_EQ(digest(obs::buildPostmortem(recorder, &registry, "golden", {})), pin.bundle)
        << "flight events and metrics digest";
}

TEST(HarnessGolden, FleetCrashedAndMirrorFed) {
    expectFleet(
        "1:crash:5:6,3:mirror:4", 24,
        {.result = "f58a5e6f487eb14a3b4510583ed844923ae2426d065b31c910444aff7a7fd9d9",
         .status = "44bf15ab6e70d36de2862493ee91e2f6e3c953226e59bc446888b525c023c1c5",
         .bundle = "c2a6ae553601687ee6f16ef93a7d30feb64850d238be03adb1ef763c9fdadc66"});
}

TEST(HarnessGolden, FleetStalledMember) {
    expectFleet(
        "2:stall:6", 16,
        {.result = "128ceced7fae424a090cfa9420935ea8c60badac5b7d6d36d7438ae999d04642",
         .status = "7adf36a4193b4d90399ac6b3c69bc294ec5e96e08a52e4ded03d781276e542fa",
         .bundle = "c77e0af7531aab2b83e12a7a705111a43c114c363f70f1901c68ba3351ad68cb"});
}

// ---------------------------------------------------------------------------
// Attack zoo

std::string packText(const adversary::PackRunResult& r) {
    std::string out = r.transcript + r.plan.serialize();
    for (const std::string& m : r.diff.missing) out += "missing " + m + "\n";
    for (const std::string& s : r.diff.spurious) out += "spurious " + s + "\n";
    return out;
}

TEST(HarnessGolden, EveryPackAtSeedOne) {
    const std::vector<std::pair<std::string, const char*>> pins = {
        {"oversized-object", "e25e69e2d67d165544ab306a4c914731457a24ffc6ebb9412fb21d385297167b"},
        {"manifest-graph", "7748e21c0b351f08597d90ce65584b70ea55abecbdc22622c160ff565a4b1957"},
        {"same-serial-swap", "cda812a70fa1cf59668c5906ef5ba7a0a316051ca9f60fc55886c5eb97b5acfa"},
        {"rollover-replay", "d08edab051adb504d4b38856122e640b163323d5588393788772025048d59fef"},
        {"stalloris-drain", "a4ec1067e3bfa76a1d32e318af1ca40f6ee336bf30340f2e1d67545e17e3e247"},
        {"calm", "d323d06f7dcf2e098e25498961d8ddcd20e4314234a11e07d9d927ad2ab3d84d"},
    };
    ASSERT_EQ(adversary::packNames().size(), pins.size());
    for (const auto& [pack, pin] : pins) {
        adversary::PackRunConfig cfg;
        cfg.pack = pack;
        cfg.seed = 1;
        const adversary::PackRunResult r = adversary::runPack(cfg);
        EXPECT_TRUE(r.passed) << pack;
        EXPECT_TRUE(r.postmortems.empty()) << pack;
        EXPECT_EQ(digest(packText(r)), pin) << pack;
    }
}

TEST(HarnessGolden, DisabledDetectionFailureAndItsReplay) {
    adversary::PackRunConfig cfg;
    cfg.pack = "same-serial-swap";
    cfg.seed = 3;
    cfg.disableDetection = true;
    const adversary::PackRunResult r = adversary::runPack(cfg);
    EXPECT_FALSE(r.passed);
    EXPECT_EQ(digest(packText(r)),
              "85c6c8ab5126dd8f7ad24bc552e6908b27dad7e945ba20e49d5cf4c004b3b101")
        << "transcript, plan, diff";
    EXPECT_EQ(digest(bundles(r.postmortems)),
              "433e205552712a5e13954d76650e0e1b16e79abba98e820b9e6578dc62affe84")
        << "oracle-diff bundle";

    adversary::PackRunConfig overrides;
    overrides.disableDetection = true;
    const adversary::PackRunResult replay =
        adversary::runPackWithPlan(FaultPlan::parse(r.plan.serialize()), overrides);
    EXPECT_EQ(packText(replay), packText(r));
    EXPECT_EQ(bundles(replay.postmortems), bundles(r.postmortems));
}

}  // namespace
}  // namespace rpkic
