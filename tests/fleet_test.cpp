// Multi-RP fleet: vote wire format round-trips and rejects malformed
// input, the message bus is a deterministic fault surface, the consensus
// tracker separates crashed / stalled / mirror-fed members, and runFleet
// upholds I10 (correct majority masks any sub-quorum minority) and I11
// (every masked member attributed with its configured fault class) with
// byte-identical transcripts at every thread count.
#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "rpki/chaos.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"

namespace rpkic::fleet {
namespace {

Digest digestOf(const std::string& s) {
    return sha256(s);
}

VrpVote sampleVote() {
    VrpVote v;
    v.member = 2;
    v.epoch = 7;
    v.vrpHash = digestOf("vrp-state");
    v.vrpCount = 42;
    v.claims.push_back({"rpki://isp/", 3, digestOf("isp-m3")});
    v.claims.push_back({"rpki://org/", 5, digestOf("org-m5")});
    return v;
}

// ---------------------------------------------------------------------------
// Vote wire format

TEST(VoteWire, BinaryRoundTripsExactly) {
    const VrpVote v = sampleVote();
    const Bytes wire = v.encode();
    const VrpVote back = VrpVote::decode(ByteView(wire.data(), wire.size()));
    EXPECT_EQ(back, v);
    EXPECT_EQ(back.encode(), wire);
}

TEST(VoteWire, EmptyClaimsRoundTrip) {
    VrpVote v;
    v.member = 0;
    v.epoch = 0;
    v.vrpHash = digestOf("");
    const Bytes wire = v.encode();
    EXPECT_EQ(VrpVote::decode(ByteView(wire.data(), wire.size())), v);
}

TEST(VoteWire, RejectsTruncationAndTrailingGarbage) {
    const Bytes wire = sampleVote().encode();
    for (std::size_t len = 0; len < wire.size(); ++len) {
        EXPECT_THROW(VrpVote::decode(ByteView(wire.data(), len)), ParseError) << "len=" << len;
    }
    Bytes padded = wire;
    padded.push_back(0);
    EXPECT_THROW(VrpVote::decode(ByteView(padded.data(), padded.size())), ParseError);
}

TEST(VoteWire, RejectsBadMagic) {
    Bytes wire = sampleVote().encode();
    wire[0] ^= 0xff;
    EXPECT_THROW(VrpVote::decode(ByteView(wire.data(), wire.size())), ParseError);
}

TEST(VoteWire, RejectsUnsortedOrDuplicateClaims) {
    VrpVote unsorted = sampleVote();
    std::swap(unsorted.claims[0], unsorted.claims[1]);
    Bytes wire = unsorted.encode();  // encode() does not sort for us
    EXPECT_THROW(VrpVote::decode(ByteView(wire.data(), wire.size())), ParseError);

    VrpVote dup = sampleVote();
    dup.claims.push_back(dup.claims.back());
    wire = dup.encode();
    EXPECT_THROW(VrpVote::decode(ByteView(wire.data(), wire.size())), ParseError);
}

// ---------------------------------------------------------------------------
// Message bus

ByteView bytesOf(const char* s) {
    return ByteView(reinterpret_cast<const std::uint8_t*>(s), std::char_traits<char>::length(s));
}

TEST(Bus, DeliversSortedBySenderAndSequence) {
    MessageBus bus(4);
    bus.send(2, 3, 0, bytesOf("from-2"));
    bus.send(0, 3, 0, bytesOf("from-0"));
    bus.send(1, 3, 0, bytesOf("from-1"));
    const auto got = bus.collect(3, 0);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].from, 0u);
    EXPECT_EQ(got[1].from, 1u);
    EXPECT_EQ(got[2].from, 2u);
    EXPECT_TRUE(bus.collect(3, 0).empty());  // collect drains
}

TEST(Bus, LoseDropsAndDelayPostpones) {
    MessageBus bus(3);
    bus.addFault(LinkFault{LinkFaultKind::Lose, 0, 2, 0, 1, 0});
    bus.addFault(LinkFault{LinkFaultKind::Delay, 1, 2, 0, 1, 2});
    bus.send(0, 2, 0, bytesOf("lost"));
    bus.send(1, 2, 0, bytesOf("late"));
    EXPECT_TRUE(bus.collect(2, 0).empty());
    EXPECT_TRUE(bus.collect(2, 1).empty());
    const auto got = bus.collect(2, 2);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].from, 1u);
    EXPECT_EQ(bus.stats().lost, 1u);
    EXPECT_EQ(bus.stats().delayed, 1u);
}

TEST(Bus, CorruptFlipsExactlyOneBit) {
    MessageBus bus(2);
    bus.addFault(LinkFault{LinkFaultKind::Corrupt, 0, 1, 0, 1, 3});
    bus.send(0, 1, 0, bytesOf("a"));
    const auto got = bus.collect(1, 0);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].payload[0], static_cast<std::uint8_t>('a') ^ (1u << 3));
    EXPECT_EQ(bus.stats().corrupted, 1u);
}

TEST(Bus, PartitionSplitsByBitmask) {
    MessageBus bus(4);
    // Members 0 and 1 on one side (bits 0,1 set); 2 and 3 on the other.
    bus.addFault(LinkFault{LinkFaultKind::Partition, LinkFault::kMatchAny, LinkFault::kMatchAny, 0,
                           1, 0b0011});
    bus.send(0, 1, 0, bytesOf("same-side"));
    bus.send(0, 2, 0, bytesOf("cross"));
    bus.send(3, 2, 0, bytesOf("same-side"));
    EXPECT_EQ(bus.collect(1, 0).size(), 1u);
    EXPECT_EQ(bus.collect(2, 0).size(), 1u);  // only the same-side message
    EXPECT_EQ(bus.stats().lost, 1u);
}

// ---------------------------------------------------------------------------
// Consensus tracker

VrpVote voteWith(std::uint32_t member, std::uint64_t epoch, const std::string& world,
                 std::vector<VoteClaim> claims = {}) {
    VrpVote v;
    v.member = member;
    v.epoch = epoch;
    v.vrpHash = digestOf(world);
    v.claims = std::move(claims);
    std::sort(v.claims.begin(), v.claims.end());
    return v;
}

TEST(Consensus, UnanimityFastPath) {
    ConsensusTracker tracker(3, 2);
    const auto d = tracker.decide(
        0, {voteWith(0, 0, "w"), voteWith(1, 0, "w"), voteWith(2, 0, "w")});
    EXPECT_EQ(d.outcome, ConsensusOutcome::Unanimous);
    EXPECT_EQ(d.agreeing, 3u);
    EXPECT_TRUE(d.verdicts.empty());
    EXPECT_EQ(d.winners, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Consensus, ExactThresholdQuorum) {
    // f = 2 faulty of N = 2f+1 = 5 at Q = f+1 = 3: the honest three still
    // carry the epoch.
    ConsensusTracker tracker(5, 3);
    const VoteClaim honest{"rpki://org/", 4, digestOf("m4")};
    const auto d = tracker.decide(0, {
                                         voteWith(0, 0, "w", {honest}),
                                         voteWith(1, 0, "evil-a"),
                                         voteWith(2, 0, "w", {honest}),
                                         voteWith(3, 0, "evil-b"),
                                         voteWith(4, 0, "w", {honest}),
                                     });
    EXPECT_EQ(d.outcome, ConsensusOutcome::Quorum);
    EXPECT_EQ(d.agreeing, 3u);
    EXPECT_EQ(d.winners, (std::vector<std::uint32_t>{0, 2, 4}));
    EXPECT_EQ(d.winningHash, digestOf("w"));
    ASSERT_EQ(d.verdicts.size(), 2u);
    EXPECT_EQ(d.verdicts[0].member, 1u);
    EXPECT_EQ(d.verdicts[1].member, 3u);
}

TEST(Consensus, NoQuorumWithholdsAndAttributesNothing) {
    ConsensusTracker tracker(5, 3);
    const auto d = tracker.decide(0, {voteWith(0, 0, "a"), voteWith(1, 0, "a"),
                                      voteWith(2, 0, "b"), voteWith(3, 0, "b")});
    EXPECT_EQ(d.outcome, ConsensusOutcome::NoQuorum);
    EXPECT_EQ(d.agreeing, 2u);
    EXPECT_TRUE(d.winners.empty());
    // No quorum means no trustworthy reference to attribute against.
    EXPECT_TRUE(d.verdicts.empty());
}

TEST(Consensus, AbsentMemberIsCrashedUnaccountable) {
    ConsensusTracker tracker(3, 2);
    const auto d = tracker.decide(0, {voteWith(0, 0, "w"), voteWith(2, 0, "w")});
    ASSERT_EQ(d.verdicts.size(), 1u);
    EXPECT_EQ(d.verdicts[0].member, 1u);
    EXPECT_EQ(d.verdicts[0].cls, MemberFaultClass::Crashed);
    EXPECT_EQ(d.verdicts[0].table7, rp::AlarmType::MissingInformation);
    EXPECT_FALSE(d.verdicts[0].accountable);
}

TEST(Consensus, LaggingMemberIsStalledUnaccountable) {
    ConsensusTracker tracker(3, 2);
    const VoteClaim oldClaim{"rpki://org/", 3, digestOf("m3")};
    const VoteClaim newClaim{"rpki://org/", 4, digestOf("m4")};
    // Epoch 0: everyone at m3 — the tracker records the majority history.
    tracker.decide(0, {voteWith(0, 0, "w0", {oldClaim}), voteWith(1, 0, "w0", {oldClaim}),
                       voteWith(2, 0, "w0", {oldClaim})});
    // Epoch 1: member 1 is pinned at m3 while the majority moved to m4.
    const auto d =
        tracker.decide(1, {voteWith(0, 1, "w1", {newClaim}), voteWith(1, 1, "w0", {oldClaim}),
                           voteWith(2, 1, "w1", {newClaim})});
    ASSERT_EQ(d.verdicts.size(), 1u);
    EXPECT_EQ(d.verdicts[0].cls, MemberFaultClass::Stalled);
    EXPECT_EQ(d.verdicts[0].table7, rp::AlarmType::MissingInformation);
    EXPECT_FALSE(d.verdicts[0].accountable);
}

TEST(Consensus, ConflictingDigestIsMirrorFedAccountable) {
    ConsensusTracker tracker(3, 2);
    const VoteClaim honest{"rpki://org/", 4, digestOf("m4")};
    const VoteClaim forged{"rpki://org/", 4, digestOf("forged-m4")};
    const auto d = tracker.decide(0, {voteWith(0, 0, "w", {honest}),
                                      voteWith(1, 0, "x", {forged}),
                                      voteWith(2, 0, "w", {honest})});
    ASSERT_EQ(d.verdicts.size(), 1u);
    EXPECT_EQ(d.verdicts[0].cls, MemberFaultClass::MirrorFed);
    EXPECT_EQ(d.verdicts[0].table7, rp::AlarmType::GlobalInconsistency);
    EXPECT_TRUE(d.verdicts[0].accountable);  // two manifests, one number
}

TEST(Consensus, HistoryConflictConvictsLaggingMirror) {
    ConsensusTracker tracker(3, 2);
    const VoteClaim m3{"rpki://org/", 3, digestOf("m3")};
    const VoteClaim m4{"rpki://org/", 4, digestOf("m4")};
    const VoteClaim forgedM3{"rpki://org/", 3, digestOf("forged-m3")};
    tracker.decide(0, {voteWith(0, 0, "w0", {m3}), voteWith(1, 0, "w0", {m3}),
                       voteWith(2, 0, "w0", {m3})});
    // Member 1 lags at number 3 but with a digest the quorum never saw at
    // number 3: that is a mirror world, not a stall.
    const auto d = tracker.decide(1, {voteWith(0, 1, "w1", {m4}),
                                      voteWith(1, 1, "x", {forgedM3}),
                                      voteWith(2, 1, "w1", {m4})});
    ASSERT_EQ(d.verdicts.size(), 1u);
    EXPECT_EQ(d.verdicts[0].cls, MemberFaultClass::MirrorFed);
    EXPECT_TRUE(d.verdicts[0].accountable);
}

TEST(Consensus, AheadOfMajorityIsMirrorFed) {
    ConsensusTracker tracker(3, 2);
    const VoteClaim m4{"rpki://org/", 4, digestOf("m4")};
    const VoteClaim m9{"rpki://org/", 9, digestOf("m9")};
    const auto d = tracker.decide(0, {voteWith(0, 0, "w", {m4}), voteWith(1, 0, "x", {m9}),
                                      voteWith(2, 0, "w", {m4})});
    ASSERT_EQ(d.verdicts.size(), 1u);
    EXPECT_EQ(d.verdicts[0].cls, MemberFaultClass::MirrorFed);
}

// ---------------------------------------------------------------------------
// MemberFaultSpec

TEST(FaultSpec, ParsesAndPrints) {
    const auto set = MemberFaultSpec::parseSet("1:crash:5:6,3:mirror:4,0:stall");
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set[0], (MemberFaultSpec{1, MemberFaultClass::Crashed, 5, 6}));
    EXPECT_EQ(set[1], (MemberFaultSpec{3, MemberFaultClass::MirrorFed, 4}));
    EXPECT_EQ(set[2], (MemberFaultSpec{0, MemberFaultClass::Stalled, 0}));
    EXPECT_TRUE(MemberFaultSpec::parseSet("").empty());
    EXPECT_THROW(MemberFaultSpec::parse("1:sabotage"), ParseError);
    EXPECT_THROW(MemberFaultSpec::parse("1"), ParseError);
}

TEST(FaultSpec, MemberAndLengthAboveU32AreRejected) {
    // 2^32 + 1 would wrap to member 1; 2^32 to a zero-epoch window.
    EXPECT_THROW(MemberFaultSpec::parse("4294967297:crash:1"), ParseError);
    EXPECT_THROW(MemberFaultSpec::parse("1:crash:1:4294967296"), ParseError);
    EXPECT_EQ(MemberFaultSpec::parse("1:crash:1:4294967295").epochs, MemberFaultSpec::kToEnd);
}

// ---------------------------------------------------------------------------
// Fleet integration

FleetConfig baseConfig() {
    FleetConfig cfg;
    cfg.seed = 11;
    cfg.members = 5;
    cfg.quorum = 3;
    cfg.epochs = 12;
    return cfg;
}

TEST(Fleet, AllHonestIsUnanimousEveryEpoch) {
    FleetConfig cfg = baseConfig();
    cfg.members = 3;
    cfg.quorum = 2;
    cfg.epochs = 8;
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.stats.epochs, 8u);
    EXPECT_EQ(r.stats.unanimousEpochs, 8u);
    EXPECT_EQ(r.stats.outputEpochs, 8u);
    EXPECT_EQ(r.stats.finalOutputRoas, r.stats.twinFinalRoas);
    EXPECT_EQ(r.stats.verdictsCrashed + r.stats.verdictsStalled + r.stats.verdictsMirrorFed, 0u);
    for (const TranscriptEpoch& row : r.transcript.rows) {
        EXPECT_TRUE(row.hasOutput);
        EXPECT_EQ(row.decision.outcome, ConsensusOutcome::Unanimous);
    }
}

TEST(Fleet, CrashedMemberIsMaskedAttributedAndRejoins) {
    FleetConfig cfg = baseConfig();
    cfg.faulty = MemberFaultSpec::parseSet("1:crash:3:4");
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_GE(r.stats.crashes, 1u);
    EXPECT_EQ(r.stats.restarts, 1u);
    EXPECT_GE(r.stats.verdictsCrashed, 1u);
    EXPECT_EQ(r.stats.outputEpochs, cfg.epochs);  // majority never lost
    // After rejoining at epoch 7 the member votes with the majority again.
    const TranscriptEpoch& last = r.transcript.rows.back();
    EXPECT_EQ(last.decision.outcome, ConsensusOutcome::Unanimous);
    EXPECT_EQ(last.votes.size(), 5u);
}

TEST(Fleet, StalledAndMirrorFedMinorityIsMaskedAndAttributed) {
    FleetConfig cfg = baseConfig();
    cfg.epochs = 16;
    cfg.faulty = MemberFaultSpec::parseSet("2:stall:4,4:mirror:6");
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.stats.outputEpochs, cfg.epochs);
    EXPECT_GE(r.stats.verdictsStalled, 1u);
    EXPECT_GE(r.stats.verdictsMirrorFed, 1u);
    // The mirror-fed member must at some point be convicted accountably.
    bool accountableMirror = false;
    for (const TranscriptEpoch& row : r.transcript.rows) {
        for (const MemberVerdict& v : row.decision.verdicts) {
            if (v.member == 4 && v.cls == MemberFaultClass::MirrorFed && v.accountable) {
                accountableMirror = true;
            }
        }
    }
    EXPECT_TRUE(accountableMirror);
}

TEST(Fleet, NoQuorumEpochWithholdsOutput) {
    FleetConfig cfg = baseConfig();
    cfg.members = 3;
    cfg.quorum = 3;  // unanimity required: one crash starves the quorum
    cfg.epochs = 6;
    cfg.faulty = MemberFaultSpec::parseSet("0:crash:2");
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_GE(r.stats.noQuorumEpochs, 1u);
    bool sawWithheld = false;
    for (const TranscriptEpoch& row : r.transcript.rows) {
        if (row.decision.outcome == ConsensusOutcome::NoQuorum) {
            EXPECT_FALSE(row.hasOutput);  // withheld, never guessed
            EXPECT_TRUE(row.decision.verdicts.empty());
            sawWithheld = true;
        }
    }
    EXPECT_TRUE(sawWithheld);
    bool sawNoQuorumAlarm = false;
    for (const rp::Alarm& a : r.alarms) {
        if (a.victim == "fleet-output" && a.type == rp::AlarmType::MissingInformation &&
            !a.accountable) {
            sawNoQuorumAlarm = true;
        }
    }
    EXPECT_TRUE(sawNoQuorumAlarm);
}

TEST(Fleet, TranscriptIsByteIdenticalAcrossThreadCounts) {
    FleetConfig cfg = baseConfig();
    cfg.faulty = MemberFaultSpec::parseSet("1:crash:5:6,3:mirror:4");
    std::string reference;
    for (const std::size_t threads : {1u, 2u, 4u}) {
        rc::parallel::Pool pool(threads);
        FleetConfig run = cfg;
        run.pool = &pool;
        const FleetResult r = runFleet(run);
        const std::string text = r.transcript.serialize();
        if (reference.empty()) {
            reference = text;
        } else {
            EXPECT_EQ(text, reference) << "threads=" << threads;
        }
    }
    EXPECT_FALSE(reference.empty());
}

TEST(Fleet, RejoinedMemberRecoversFromDurableStore) {
    FleetConfig cfg = baseConfig();
    cfg.epochs = 14;
    cfg.faulty = MemberFaultSpec::parseSet("0:crash:4:3");
    obs::Registry registry;
    cfg.registry = &registry;
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_EQ(r.stats.restarts, 1u);
    // The restart path is the durable-store recovery path, visible in the
    // shared registry via the member's rc_store_* family.
    const std::string exposition = registry.renderPrometheus();
    EXPECT_NE(exposition.find("rc_fleet_restarts_total 1"), std::string::npos);
}

TEST(Fleet, VoteLossOnTheBusDoesNotCrashTheFleet) {
    FleetConfig cfg = baseConfig();
    cfg.epochs = 8;
    // Lose every vote member 2 sends during epochs [2, 5).
    cfg.linkFaults.push_back(LinkFault{LinkFaultKind::Lose, 2, LinkFault::kMatchAny, 2, 3, 0});
    const FleetResult r = runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_GE(r.stats.messagesLost, 1u);
    EXPECT_EQ(r.stats.outputEpochs, 8u);  // 4 of 5 votes still reach quorum
}

TEST(Fleet, MultiSeedSweepHoldsInvariants) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FleetConfig cfg = baseConfig();
        cfg.seed = seed;
        cfg.epochs = 10;
        cfg.faulty = MemberFaultSpec::parseSet("1:crash:5:6,3:mirror:4");
        const FleetResult r = runFleet(cfg);
        EXPECT_TRUE(r.passed) << "seed=" << seed << ": "
                              << (r.violations.empty() ? "" : r.violations.front());
    }
}

TEST(Fleet, RejectsBadParameters) {
    FleetConfig cfg = baseConfig();
    cfg.quorum = 6;
    EXPECT_THROW(runFleet(cfg), UsageError);
    cfg = baseConfig();
    cfg.faulty = MemberFaultSpec::parseSet("7:crash:1");
    EXPECT_THROW(runFleet(cfg), UsageError);
    cfg = baseConfig();
    cfg.faulty = MemberFaultSpec::parseSet("1:crash:1,1:stall:2");
    EXPECT_THROW(runFleet(cfg), UsageError);
}

}  // namespace
}  // namespace rpkic::fleet
