// Fuzz driver for the fleet's consensus exchange (src/fleet/).
//
// The input is a vote in wire format: the one consensus input that reaches
// a member from outside, over the bus. Oracle: *encode-after-decode
// identity* — whatever VrpVote::decode accepts must re-encode to the exact
// input bytes (the encoding is canonical, so there is only one byte string
// per logical vote). The decoded vote is then fed to a ConsensusTracker
// next to three synthetic honest votes: the aggregator must never crash on
// hostile-but-well-formed votes, and a vote outside the honest group must
// be attributed.
//
// Malformed input must raise ParseError and nothing else.
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "fleet/consensus.hpp"
#include "fleet/vote.hpp"
#include "util/errors.hpp"

namespace rpkic::fuzz {
namespace {

using fleet::ConsensusTracker;
using fleet::EpochDecision;
using fleet::MemberVerdict;
using fleet::VoteClaim;
using fleet::VrpVote;

[[noreturn]] void fail(const char* what) {
    std::fprintf(stderr, "fuzz_consensus: oracle violated: %s\n", what);
    std::abort();
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    VrpVote vote;
    try {
        vote = VrpVote::decode(ByteView(data, size));
    } catch (const ParseError&) {
        return;  // rejection is the expected outcome for most inputs
    }
    const Bytes again = vote.encode();
    if (again.size() != size || !std::equal(again.begin(), again.end(), data)) {
        fail("encode after decode is not the identity");
    }

    // Apply the hostile vote at a 4-member aggregator (quorum 3) next to
    // three honest votes for the decoded epoch. decide() must not throw,
    // and when the hostile vote exists outside the honest group, the
    // honest quorum must win and member 3 must be attributed.
    const Digest honestHash = sha256("honest-world");
    const VoteClaim honestClaim{"rpki://org/", 7, sha256("org-m7")};
    std::vector<VrpVote> votes;
    for (std::uint32_t m = 0; m < 3; ++m) {
        VrpVote v;
        v.member = m;
        v.epoch = vote.epoch;
        v.vrpHash = honestHash;
        v.vrpCount = 1;
        v.claims = {honestClaim};
        votes.push_back(std::move(v));
    }
    votes.push_back(vote);
    ConsensusTracker tracker(4, 3);
    EpochDecision d;
    try {
        d = tracker.decide(vote.epoch, votes);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "decide() threw: %s\n", e.what());
        fail("aggregator crashed on a well-formed hostile vote");
    }
    if (d.agreeing < 3) fail("honest quorum lost to a single hostile vote");
    bool hostileWon = false;
    for (std::uint32_t w : d.winners) hostileWon = hostileWon || w == 3;
    if (!hostileWon && vote.member == 3) {
        bool attributed = false;
        for (const MemberVerdict& v : d.verdicts) attributed = attributed || v.member == 3;
        if (!attributed) fail("divergent member 3 not attributed");
    }
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
