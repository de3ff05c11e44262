#include "fleet/transcript.hpp"

namespace rpkic::fleet {

std::string LocalOutcome::str(std::uint64_t epoch) const {
    return "local epoch=" + std::to_string(epoch) + " member=" + std::to_string(member) +
           " outcome=" + std::string(toString(outcome)) + " agree=" + std::to_string(agreeing) +
           " votes=" + std::to_string(votesSeen);
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

}  // namespace rpkic::fleet
