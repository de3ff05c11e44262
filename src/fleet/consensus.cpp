#include "fleet/consensus.hpp"

#include <algorithm>

#include "fleet/textutil.hpp"
#include "util/errors.hpp"

namespace rpkic::fleet {

namespace {

rp::AlarmType alarmTypeFromToken(std::string_view s) {
    if (s == "missing-information") return rp::AlarmType::MissingInformation;
    if (s == "bad-key-rollover") return rp::AlarmType::BadKeyRollover;
    if (s == "invalid-syntax") return rp::AlarmType::InvalidSyntax;
    if (s == "child-too-broad") return rp::AlarmType::ChildTooBroad;
    if (s == "unilateral-revocation") return rp::AlarmType::UnilateralRevocation;
    if (s == "global-inconsistency") return rp::AlarmType::GlobalInconsistency;
    throw ParseError("unknown table-7 class: " + std::string(s));
}

}  // namespace

std::string_view toString(MemberFaultClass c) {
    switch (c) {
        case MemberFaultClass::None: return "none";
        case MemberFaultClass::Crashed: return "crashed";
        case MemberFaultClass::Stalled: return "stalled";
        case MemberFaultClass::MirrorFed: return "mirror-fed";
    }
    return "unknown";
}

MemberFaultClass memberFaultClassFromString(std::string_view s) {
    if (s == "none") return MemberFaultClass::None;
    if (s == "crashed") return MemberFaultClass::Crashed;
    if (s == "stalled") return MemberFaultClass::Stalled;
    if (s == "mirror-fed") return MemberFaultClass::MirrorFed;
    throw ParseError("unknown member-fault class: " + std::string(s));
}

std::string_view toString(ConsensusOutcome o) {
    switch (o) {
        case ConsensusOutcome::Unanimous: return "unanimous";
        case ConsensusOutcome::Quorum: return "quorum";
        case ConsensusOutcome::NoQuorum: return "no-quorum";
    }
    return "unknown";
}

ConsensusOutcome consensusOutcomeFromString(std::string_view s) {
    if (s == "unanimous") return ConsensusOutcome::Unanimous;
    if (s == "quorum") return ConsensusOutcome::Quorum;
    if (s == "no-quorum") return ConsensusOutcome::NoQuorum;
    throw ParseError("unknown consensus outcome: " + std::string(s));
}

std::string MemberVerdict::str(std::uint64_t epoch) const {
    detail::requireTranscriptSafe(detail.empty() ? "-" : detail, "verdict detail");
    return "verdict epoch=" + std::to_string(epoch) + " member=" + std::to_string(member) +
           " class=" + std::string(toString(cls)) + " table7=" + std::string(rp::toString(table7)) +
           " accountable=" + (accountable ? "true" : "false") +
           " detail=" + (detail.empty() ? "-" : detail);
}

MemberVerdict MemberVerdict::parseLine(std::string_view line, std::uint64_t* epochOut) {
    MemberVerdict v;
    for (const auto& [key, value] : detail::keyValueTokens(line, "verdict")) {
        if (key == "epoch") {
            if (epochOut != nullptr) *epochOut = parseU64(value, "epoch");
        } else if (key == "member") {
            v.member = static_cast<std::uint32_t>(parseU64(value, "member"));
        } else if (key == "class") {
            v.cls = memberFaultClassFromString(value);
        } else if (key == "table7") {
            v.table7 = alarmTypeFromToken(value);
        } else if (key == "accountable") {
            if (value != "true" && value != "false") throw ParseError("bad accountable flag");
            v.accountable = value == "true";
        } else if (key == "detail") {
            if (value != "-") detail::requireParsedTokenSafe(value, "verdict detail");
            v.detail = value == "-" ? std::string() : std::string(value);
        } else {
            throw ParseError("verdict line has unknown key: " + std::string(key));
        }
    }
    return v;
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

EpochDecision EpochDecision::parseDecisionLine(std::string_view line) {
    EpochDecision d;
    for (const auto& [key, value] : detail::keyValueTokens(line, "decision")) {
        if (key == "epoch") {
            d.epoch = parseU64(value, "epoch");
        } else if (key == "outcome") {
            d.outcome = consensusOutcomeFromString(value);
        } else if (key == "hash") {
            d.winningHash = Digest::fromHex(value);
        } else if (key == "agree") {
            d.agreeing = static_cast<std::uint32_t>(parseU64(value, "agree"));
        } else if (key == "votes") {
            d.votesSeen = static_cast<std::uint32_t>(parseU64(value, "votes"));
        } else if (key == "winners") {
            if (value == "-") continue;
            for (std::string_view item : detail::splitList(value, ',')) {
                d.winners.push_back(static_cast<std::uint32_t>(parseU64(item, "winner")));
            }
        } else {
            throw ParseError("decision line has unknown key: " + std::string(key));
        }
    }
    return d;
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
