#include "fleet/transcript.hpp"

#include "fleet/textutil.hpp"
#include "util/errors.hpp"

namespace rpkic::fleet {

std::string LocalOutcome::str(std::uint64_t epoch) const {
    return "local epoch=" + std::to_string(epoch) + " member=" + std::to_string(member) +
           " outcome=" + std::string(toString(outcome)) + " agree=" + std::to_string(agreeing) +
           " votes=" + std::to_string(votesSeen);
}

LocalOutcome LocalOutcome::parseLine(std::string_view line, std::uint64_t* epochOut) {
    LocalOutcome lo;
    for (const auto& [key, value] : detail::keyValueTokens(line, "local")) {
        if (key == "epoch") {
            if (epochOut != nullptr) *epochOut = parseU64(value, "epoch");
        } else if (key == "member") {
            lo.member = static_cast<std::uint32_t>(parseU64(value, "member"));
        } else if (key == "outcome") {
            lo.outcome = consensusOutcomeFromString(value);
        } else if (key == "agree") {
            lo.agreeing = static_cast<std::uint32_t>(parseU64(value, "agree"));
        } else if (key == "votes") {
            lo.votesSeen = static_cast<std::uint32_t>(parseU64(value, "votes"));
        } else {
            throw ParseError("local line has unknown key: " + std::string(key));
        }
    }
    return lo;
}

std::string FleetTranscript::serialize() const {
    std::string out = "fleettranscript version=1 seed=" + std::to_string(seed) +
                      " members=" + std::to_string(members) + " quorum=" + std::to_string(quorum) +
                      " epochs=" + std::to_string(epochs) + "\n";
    for (const TranscriptEpoch& row : rows) {
        out += "epoch n=" + std::to_string(row.epoch) + " rejected=" +
               std::to_string(row.rejectedVotes) + " stale=" + std::to_string(row.staleVotes) +
               "\n";
        for (const VrpVote& v : row.votes) out += v.str() + "\n";
        out += row.decision.str() + "\n";
        for (const MemberVerdict& v : row.decision.verdicts) out += v.str(row.epoch) + "\n";
        for (const LocalOutcome& lo : row.locals) out += lo.str(row.epoch) + "\n";
        out += "output epoch=" + std::to_string(row.epoch) +
               " present=" + (row.hasOutput ? "true" : "false") +
               " roas=" + std::to_string(row.outputRoas) + "\n";
    }
    return out;
}

FleetTranscript FleetTranscript::parse(std::string_view text) {
    FleetTranscript t;
    std::size_t pos = 0;
    bool sawHeader = false;
    bool inEpoch = false;       // between "epoch" and its "output" line
    bool sawDecision = false;   // current epoch's decision line seen

    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string_view::npos) end = text.size();
        const std::string_view line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;

        if (!sawHeader) {
            for (const auto& [key, value] : detail::keyValueTokens(line, "fleettranscript")) {
                if (key == "version") {
                    if (parseU64(value, "version") != 1) {
                        throw ParseError("unsupported transcript version");
                    }
                } else if (key == "seed") {
                    t.seed = parseU64(value, "seed");
                } else if (key == "members") {
                    t.members = static_cast<std::uint32_t>(parseU64(value, "members"));
                } else if (key == "quorum") {
                    t.quorum = static_cast<std::uint32_t>(parseU64(value, "quorum"));
                } else if (key == "epochs") {
                    t.epochs = parseU64(value, "epochs");
                } else {
                    throw ParseError("transcript header has unknown key: " + std::string(key));
                }
            }
            t.rows.clear();
            sawHeader = true;
            continue;
        }

        const std::size_t sp = line.find(' ');
        const std::string_view tag = line.substr(0, sp == std::string_view::npos ? line.size() : sp);

        if (tag == "epoch") {
            if (inEpoch) throw ParseError("epoch line before previous epoch's output line");
            TranscriptEpoch row;
            for (const auto& [key, value] : detail::keyValueTokens(line, "epoch")) {
                if (key == "n") {
                    row.epoch = parseU64(value, "epoch number");
                } else if (key == "rejected") {
                    row.rejectedVotes = parseU64(value, "rejected");
                } else if (key == "stale") {
                    row.staleVotes = parseU64(value, "stale");
                } else {
                    throw ParseError("epoch line has unknown key: " + std::string(key));
                }
            }
            t.rows.push_back(std::move(row));
            inEpoch = true;
            sawDecision = false;
        } else if (tag == "vote") {
            if (!inEpoch || sawDecision) throw ParseError("vote line outside an epoch's vote block");
            t.rows.back().votes.push_back(VrpVote::parseLine(line));
        } else if (tag == "decision") {
            if (!inEpoch || sawDecision) throw ParseError("unexpected decision line");
            t.rows.back().decision = EpochDecision::parseDecisionLine(line);
            if (t.rows.back().decision.epoch != t.rows.back().epoch) {
                throw ParseError("decision epoch does not match its block");
            }
            sawDecision = true;
        } else if (tag == "verdict") {
            if (!inEpoch || !sawDecision) throw ParseError("verdict line before decision");
            std::uint64_t epoch = 0;
            t.rows.back().decision.verdicts.push_back(MemberVerdict::parseLine(line, &epoch));
            if (epoch != t.rows.back().epoch) throw ParseError("verdict epoch mismatch");
        } else if (tag == "local") {
            if (!inEpoch || !sawDecision) throw ParseError("local line before decision");
            std::uint64_t epoch = 0;
            t.rows.back().locals.push_back(LocalOutcome::parseLine(line, &epoch));
            if (epoch != t.rows.back().epoch) throw ParseError("local epoch mismatch");
        } else if (tag == "output") {
            if (!inEpoch || !sawDecision) throw ParseError("output line before decision");
            TranscriptEpoch& row = t.rows.back();
            for (const auto& [key, value] : detail::keyValueTokens(line, "output")) {
                if (key == "epoch") {
                    if (parseU64(value, "epoch") != row.epoch) {
                        throw ParseError("output epoch mismatch");
                    }
                } else if (key == "present") {
                    if (value != "true" && value != "false") throw ParseError("bad present flag");
                    row.hasOutput = value == "true";
                } else if (key == "roas") {
                    row.outputRoas = parseU64(value, "roas");
                } else {
                    throw ParseError("output line has unknown key: " + std::string(key));
                }
            }
            inEpoch = false;
        } else {
            throw ParseError("unknown transcript line tag: " + std::string(tag));
        }
    }
    if (!sawHeader) throw ParseError("transcript missing header line");
    if (inEpoch) throw ParseError("transcript ends mid-epoch");
    return t;
}

}  // namespace rpkic::fleet
