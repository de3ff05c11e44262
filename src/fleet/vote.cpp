#include "fleet/vote.hpp"

#include <algorithm>

#include "fleet/textutil.hpp"
#include "rpki/encoding.hpp"
#include "util/errors.hpp"

namespace rpkic::fleet {

namespace {
constexpr std::uint32_t kVoteMagic = 0x46564f31;  // "FVO1"
}  // namespace

Bytes VrpVote::encode() const {
    Encoder e;
    e.u32(kVoteMagic);
    e.u32(member);
    e.u64(epoch);
    e.digest(vrpHash);
    e.u64(vrpCount);
    e.u32(static_cast<std::uint32_t>(claims.size()));
    for (const VoteClaim& c : claims) {
        e.str(c.pointUri);
        e.u64(c.number);
        e.digest(c.bodyHash);
    }
    return e.take();
}

VrpVote VrpVote::decode(ByteView data) {
    Decoder d(data);
    if (d.u32() != kVoteMagic) throw ParseError("vote: bad magic");
    VrpVote v;
    v.member = d.u32();
    v.epoch = d.u64();
    v.vrpHash = d.digest();
    v.vrpCount = d.u64();
    const std::uint32_t n = d.u32();
    // Do not trust n for the allocation: each claim needs at least 44
    // bytes of input, so a count beyond that is rejected before any claim
    // parse can fail (and can never trigger a huge reserve).
    if (static_cast<std::uint64_t>(n) * 44 > data.size()) {
        throw ParseError("vote: claim count exceeds input");
    }
    v.claims.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        VoteClaim c;
        c.pointUri = d.str();
        c.number = d.u64();
        c.bodyHash = d.digest();
        // Canonical form: claims strictly ascending by point URI. Anything
        // else (unsorted, duplicate) has a second encoding of the same
        // logical vote, which would break encode-after-decode identity.
        if (!v.claims.empty() && !(v.claims.back().pointUri < c.pointUri)) {
            throw ParseError("vote: claims not strictly sorted by point");
        }
        v.claims.push_back(std::move(c));
    }
    d.expectEnd();
    return v;
}

Digest VrpVote::identity() const {
    Encoder e;
    e.digest(vrpHash);
    e.u64(vrpCount);
    e.u32(static_cast<std::uint32_t>(claims.size()));
    for (const VoteClaim& c : claims) {
        e.str(c.pointUri);
        e.u64(c.number);
        e.digest(c.bodyHash);
    }
    const Bytes bytes = e.take();
    return sha256(std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

std::string VrpVote::str() const {
    std::string out = "vote member=" + std::to_string(member) + " epoch=" + std::to_string(epoch) +
                      " hash=" + vrpHash.hex() + " roas=" + std::to_string(vrpCount) + " claims=";
    if (claims.empty()) {
        out += "-";
        return out;
    }
    bool first = true;
    for (const VoteClaim& c : claims) {
        detail::requireTranscriptSafe(c.pointUri, "vote point uri");
        if (!first) out += ",";
        first = false;
        out += c.pointUri + "@" + std::to_string(c.number) + "@" + c.bodyHash.hex();
    }
    return out;
}

VrpVote VrpVote::cast(const rp::RelyingParty& rp, std::uint32_t member, std::uint64_t epoch,
                      const std::string& stateText, std::uint64_t vrpCount) {
    VrpVote v;
    v.member = member;
    v.epoch = epoch;
    v.vrpHash = sha256(stateText);
    v.vrpCount = vrpCount;
    for (const rp::ManifestClaim& c : rp.exportManifestClaims()) {
        v.claims.push_back(VoteClaim{c.pointUri, c.number, c.bodyHash});
    }
    std::sort(v.claims.begin(), v.claims.end());
    return v;
}

}  // namespace rpkic::fleet
