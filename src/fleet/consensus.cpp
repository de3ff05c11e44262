#include "fleet/consensus.hpp"

#include <algorithm>

#include "fleet/textutil.hpp"
#include "util/errors.hpp"

namespace rpkic::fleet {

std::string_view toString(MemberFaultClass c) {
    switch (c) {
        case MemberFaultClass::None: return "none";
        case MemberFaultClass::Crashed: return "crashed";
        case MemberFaultClass::Stalled: return "stalled";
        case MemberFaultClass::MirrorFed: return "mirror-fed";
    }
    return "unknown";
}

std::string_view toString(ConsensusOutcome o) {
    switch (o) {
        case ConsensusOutcome::Unanimous: return "unanimous";
        case ConsensusOutcome::Quorum: return "quorum";
        case ConsensusOutcome::NoQuorum: return "no-quorum";
    }
    return "unknown";
}

std::string MemberVerdict::str(std::uint64_t epoch) const {
    detail::requireTranscriptSafe(detail.empty() ? "-" : detail, "verdict detail");
    return "verdict epoch=" + std::to_string(epoch) + " member=" + std::to_string(member) +
           " class=" + std::string(toString(cls)) + " table7=" + std::string(rp::toString(table7)) +
           " accountable=" + (accountable ? "true" : "false") +
           " detail=" + (detail.empty() ? "-" : detail);
}

std::string EpochDecision::str() const {
    std::string out = "decision epoch=" + std::to_string(epoch) +
                      " outcome=" + std::string(toString(outcome)) + " hash=" + winningHash.hex() +
                      " agree=" + std::to_string(agreeing) + " votes=" + std::to_string(votesSeen) +
                      " winners=";
    if (winners.empty()) {
        out += "-";
    } else {
        for (std::size_t i = 0; i < winners.size(); ++i) {
            if (i > 0) out += ",";
            out += std::to_string(winners[i]);
        }
    }
    return out;
}

ConsensusTracker::ConsensusTracker(std::uint32_t members, std::uint32_t quorum)
    : members_(members), quorum_(quorum) {
    RC_CHECK(members >= 1 && quorum >= 1 && quorum <= members, "bad fleet quorum parameters");
}

MemberVerdict ConsensusTracker::classify(const VrpVote& vote, const VrpVote& reference) const {
    MemberVerdict v;
    v.member = vote.member;

    std::map<std::string, const VoteClaim*> refClaims;
    for (const VoteClaim& c : reference.claims) refClaims[c.pointUri] = &c;

    // Scan for mirror evidence first: any claim that *contradicts* the
    // majority (same number, different digest — now or in the recorded
    // history) or runs ahead of it convicts; mere lag never does.
    std::string mirrorEvidence;
    for (const VoteClaim& c : vote.claims) {
        const auto refIt = refClaims.find(c.pointUri);
        if (refIt != refClaims.end()) {
            const VoteClaim& ref = *refIt->second;
            if (c.number > ref.number) {
                mirrorEvidence = "ahead:" + c.pointUri + ":" + std::to_string(c.number);
                break;
            }
            if (c.number == ref.number) {
                if (c.bodyHash != ref.bodyHash) {
                    mirrorEvidence = "conflict:" + c.pointUri + ":" + std::to_string(c.number);
                    break;
                }
                continue;  // identical head for this point
            }
        }
        // Lagging (or unknown-to-the-majority) claim: consult the quorum's
        // digest history at that manifest number.
        const auto histPoint = majorityHistory_.find(c.pointUri);
        if (histPoint != majorityHistory_.end()) {
            const auto histNum = histPoint->second.find(c.number);
            if (histNum != histPoint->second.end() && histNum->second != c.bodyHash) {
                mirrorEvidence = "conflict:" + c.pointUri + ":" + std::to_string(c.number);
                break;
            }
        } else if (refIt == refClaims.end()) {
            // A point the majority has never obtained at all: a world the
            // quorum never saw.
            mirrorEvidence = "unknown-point:" + c.pointUri;
            break;
        }
    }

    if (!mirrorEvidence.empty()) {
        v.cls = MemberFaultClass::MirrorFed;
        v.table7 = rp::AlarmType::GlobalInconsistency;
        v.accountable = true;  // two manifests, one number: publishable proof
        v.detail = mirrorEvidence;
        return v;
    }

    // No contradiction anywhere: the member is consistent with the
    // majority's past but not its present.
    v.table7 = rp::AlarmType::MissingInformation;
    v.accountable = false;
    for (const VoteClaim& ref : reference.claims) {
        bool lagging = true;
        for (const VoteClaim& c : vote.claims) {
            if (c.pointUri == ref.pointUri && c.number == ref.number) {
                lagging = false;
                break;
            }
        }
        if (lagging) {
            v.cls = MemberFaultClass::Stalled;
            v.detail = "lag:" + ref.pointUri;
            return v;
        }
    }
    // Claims match the majority head exactly yet the VRP hash differs —
    // the validator itself diverged, which no honest delivery fault
    // explains. Convict rather than excuse.
    v.cls = MemberFaultClass::MirrorFed;
    v.table7 = rp::AlarmType::GlobalInconsistency;
    v.accountable = true;
    v.detail = "vrp-mismatch";
    return v;
}

EpochDecision ConsensusTracker::decide(std::uint64_t epoch, const std::vector<VrpVote>& votes) {
    EpochDecision d;
    d.epoch = epoch;

    // At most one vote per member; first delivery wins (the bus delivers
    // in a deterministic order, so this is reproducible).
    std::map<std::uint32_t, const VrpVote*> byMember;
    for (const VrpVote& v : votes) {
        if (v.epoch != epoch || v.member >= members_) continue;
        byMember.emplace(v.member, &v);
    }
    d.votesSeen = static_cast<std::uint32_t>(byMember.size());

    // Grouping is by full vote identity (VRP digest + manifest claims):
    // a member whose stale world coincidentally validates to the correct
    // VRP set must still fall outside the agreeing group, or it could
    // never be attributed.
    std::map<Digest, std::vector<std::uint32_t>> groups;
    for (const auto& [member, vote] : byMember) groups[vote->identity()].push_back(member);

    const std::vector<std::uint32_t>* winning = nullptr;
    for (const auto& [identity, group] : groups) {
        // Largest group wins; the map's identity order breaks exact ties
        // deterministically (lowest digest first).
        if (winning == nullptr || group.size() > winning->size()) {
            winning = &group;
        }
    }
    d.agreeing = winning == nullptr ? 0 : static_cast<std::uint32_t>(winning->size());

    if (winning == nullptr || d.agreeing < quorum_) {
        d.outcome = ConsensusOutcome::NoQuorum;
        return d;  // no majority, no output, no attribution
    }

    d.outcome = d.agreeing == members_ ? ConsensusOutcome::Unanimous : ConsensusOutcome::Quorum;
    d.winners = *winning;  // already ascending (byMember iteration order)
    d.winningHash = byMember.at(d.winners.front())->vrpHash;

    const VrpVote& reference = *byMember.at(d.winners.front());
    for (std::uint32_t m = 0; m < members_; ++m) {
        if (std::find(d.winners.begin(), d.winners.end(), m) != d.winners.end()) continue;
        const auto it = byMember.find(m);
        if (it == byMember.end()) {
            MemberVerdict v;
            v.member = m;
            v.cls = MemberFaultClass::Crashed;
            v.table7 = rp::AlarmType::MissingInformation;
            v.accountable = false;  // absence cannot name a perpetrator
            v.detail = "no-vote";
            d.verdicts.push_back(std::move(v));
        } else {
            d.verdicts.push_back(classify(*it->second, reference));
        }
    }

    // Fold the winner's claims into the majority history for later
    // stalled-vs-mirror separation.
    for (const VoteClaim& c : reference.claims) {
        majorityHistory_[c.pointUri][c.number] = c.bodyHash;
    }
    return d;
}

}  // namespace rpkic::fleet
