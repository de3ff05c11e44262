// Wire format of the fleet's per-epoch consistency exchange.
//
// ByzRP-style output consensus needs each relying party to publish, per
// epoch, (a) a digest of its full VRP output and (b) the manifest claims
// the paper's §5.4 global consistency check already exchanges. A VrpVote
// carries both. The binary encoding is canonical — exactly one byte string
// per vote, claims strictly sorted by point URI — so a vote's bytes can be
// compared, hashed, and re-encoded after decode to the identical string.
// Decoding rejects anything non-canonical with ParseError; the aggregator
// treats that as a malformed (attributable) vote, and fuzz_consensus
// hammers the decoder with arbitrary bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "rp/relying_party.hpp"
#include "util/bytes.hpp"

namespace rpkic::fleet {

/// One manifest claim inside a vote: the latest manifest a member obtained
/// for one publication point (what §5.4 has Bob publish, plus the number
/// so peers can distinguish "behind" from "contradicting").
struct VoteClaim {
    std::string pointUri;
    std::uint64_t number = 0;
    Digest bodyHash;

    auto operator<=>(const VoteClaim&) const = default;
};

/// One member's per-epoch vote: the SHA-256 of its canonical serialized
/// VRP state (detector stateToText), the VRP count, and its manifest
/// claims sorted by point URI.
struct VrpVote {
    std::uint32_t member = 0;
    std::uint64_t epoch = 0;
    Digest vrpHash;
    std::uint64_t vrpCount = 0;
    std::vector<VoteClaim> claims;

    /// Canonical binary encoding ("FVO1" magic). encode(decode(x)) == x
    /// for every x decode accepts.
    Bytes encode() const;
    /// Throws ParseError on malformed, truncated, trailing-garbage, or
    /// non-canonical (unsorted/duplicate claims) input.
    static VrpVote decode(ByteView data);

    /// Consensus identity: SHA-256 over the VRP digest *and* the claims.
    /// Two members agree only when both their validated output and their
    /// view of every publication point match — a member whose stale feed
    /// happens to validate to the same VRP set still stands out (§5.4's
    /// check is over manifests, not just the final output). Excludes
    /// member and epoch, so honest members share one identity per epoch.
    Digest identity() const;

    /// One-line form used in transcripts.
    std::string str() const;

    /// `rp`'s vote for `epoch`, given the stateToText form of its VRP
    /// state and that state's size.
    static VrpVote cast(const rp::RelyingParty& rp, std::uint32_t member, std::uint64_t epoch,
                        const std::string& stateText, std::uint64_t vrpCount);

    bool operator==(const VrpVote&) const = default;
};

}  // namespace rpkic::fleet
