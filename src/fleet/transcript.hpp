// The fleet's consensus transcript: everything the aggregator saw and
// decided, in a canonical line-oriented text form.
//
// The transcript is the fleet's reproducibility artifact, in the same
// spirit as FaultPlan::serialize(): a failing run prints (or dumps via
// --transcript-out) its transcript, and the acceptance criterion is that
// the bytes are identical at every thread count. Nothing reads it back:
// it is compared byte for byte (`cmp` in CI, SHA-256 in the golden test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/consensus.hpp"
#include "fleet/vote.hpp"

namespace rpkic::fleet {

/// One member's local view of an epoch (what *it* could conclude from the
/// votes the bus delivered to it — differs from the aggregator's under
/// partition or loss).
struct LocalOutcome {
    std::uint32_t member = 0;
    ConsensusOutcome outcome = ConsensusOutcome::NoQuorum;
    std::uint32_t agreeing = 0;
    std::uint32_t votesSeen = 0;

    std::string str(std::uint64_t epoch) const;
};

struct TranscriptEpoch {
    std::uint64_t epoch = 0;
    std::vector<VrpVote> votes;  ///< delivered to the aggregator, by member
    std::uint64_t rejectedVotes = 0;  ///< malformed payloads this epoch
    std::uint64_t staleVotes = 0;     ///< delayed votes from earlier epochs
    EpochDecision decision;
    std::vector<LocalOutcome> locals;
    bool hasOutput = false;
    std::uint64_t outputRoas = 0;
};

struct FleetTranscript {
    std::uint64_t seed = 0;
    std::uint32_t members = 0;
    std::uint32_t quorum = 0;
    std::uint64_t epochs = 0;
    std::vector<TranscriptEpoch> rows;

    /// Canonical text.
    std::string serialize() const;
};

}  // namespace rpkic::fleet
