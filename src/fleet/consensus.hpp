// Byzantine output consensus over per-epoch VRP votes, with
// quorum-attributed fault classification.
//
// Quorum math (docs/FLEET.md): the fleet tolerates f faulty members out of
// N = 2f + 1 with quorum Q = f + 1. Members are fail-stop, stalled, or
// mirror-fed — their *repository feeds* are adversarial, the vote channel
// is authenticated (in-process) — so simple majority agreement suffices:
// the N - f >= Q honest members always vote identically (deterministic
// validation over the same honest feed), and a faulty coalition of at most
// f < Q members can never assemble a quorum of its own.
//
// Attribution maps each masked member onto the paper's Table-7 classes:
//
//   crashed     no vote arrived            -> missing-information, unaccountable
//   stalled     claims lag the majority,
//               digests consistent with
//               the majority's history     -> missing-information, unaccountable
//   mirror-fed  a claim *contradicts* the
//               majority (same manifest
//               number, different digest,
//               now or anywhere in the
//               majority's recorded
//               history) or runs ahead of
//               it                         -> global-inconsistency, ACCOUNTABLE
//
// The stalled/mirror-fed split is the paper's §5.4 argument run across the
// fleet: lagging behind the quorum is indistinguishable from packet loss
// (unaccountable missing information), but two manifests with one number
// and two digests are publishable evidence of a mirror world (Theorem
// 5.2/5.3) — the tracker keeps the quorum's per-point digest history
// precisely so that a pinned mirror view is caught even when its numbers
// do not exceed the majority's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fleet/vote.hpp"
#include "rp/alarms.hpp"

namespace rpkic::fleet {

enum class MemberFaultClass : std::uint8_t {
    None = 0,
    Crashed = 1,
    Stalled = 2,
    MirrorFed = 3,
};

std::string_view toString(MemberFaultClass c);

enum class ConsensusOutcome : std::uint8_t {
    Unanimous = 0,  ///< every expected member voted for the winner
    Quorum = 1,     ///< winner reached Q, but some member diverged
    NoQuorum = 2,   ///< no hash reached Q: output withheld
};

std::string_view toString(ConsensusOutcome o);

/// The quorum's judgment of one masked member.
struct MemberVerdict {
    std::uint32_t member = 0;
    MemberFaultClass cls = MemberFaultClass::Crashed;
    rp::AlarmType table7 = rp::AlarmType::MissingInformation;
    bool accountable = false;
    std::string detail;  ///< single token (transcript-safe), e.g. evidence point

    std::string str(std::uint64_t epoch) const;
};

/// What one epoch of consensus decided.
struct EpochDecision {
    std::uint64_t epoch = 0;
    ConsensusOutcome outcome = ConsensusOutcome::NoQuorum;
    Digest winningHash;           ///< winning group's VRP digest; zero when NoQuorum
    std::uint32_t agreeing = 0;   ///< votes on the winning hash
    std::uint32_t votesSeen = 0;  ///< well-formed votes for this epoch
    std::vector<std::uint32_t> winners;       ///< members in the winning group
    std::vector<MemberVerdict> verdicts;      ///< masked members (quorum epochs only)

    std::string str() const;
};

/// Per-epoch consensus engine. Stateful: quorum epochs feed the winner's
/// manifest claims into a (point, number) -> digest history, which later
/// epochs consult to separate stalled members from mirror-fed ones.
class ConsensusTracker {
public:
    ConsensusTracker(std::uint32_t members, std::uint32_t quorum);

    /// Decides one epoch from the delivered votes (at most one per member;
    /// later duplicates are ignored). Verdicts are attributed only when a
    /// quorum exists — without one there is no majority whose word could
    /// back an accusation.
    EpochDecision decide(std::uint64_t epoch, const std::vector<VrpVote>& votes);

    std::uint32_t members() const { return members_; }
    std::uint32_t quorum() const { return quorum_; }

private:
    MemberVerdict classify(const VrpVote& vote, const VrpVote& reference) const;

    std::uint32_t members_;
    std::uint32_t quorum_;
    /// point -> manifest number -> digest, as recorded from quorum winners.
    std::map<std::string, std::map<std::uint64_t, Digest>> majorityHistory_;
};

}  // namespace rpkic::fleet
