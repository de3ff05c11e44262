// Serialization of the relying party's persistent state. Versioned,
// strict: any mismatch throws ParseError rather than resuming from a
// half-understood cache (a wrong cache could mask a unilateral
// revocation).
#include "rp/relying_party.hpp"

#include <limits>

#include "crypto/sha256.hpp"
#include "rpki/encoding.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

namespace {
constexpr std::uint32_t kMagic = 0x52504331;       // "RPC1", leads the body
constexpr std::uint32_t kFooterMagic = 0x52504346;  // "RPCF", ends the blob

// Trailing integrity footer: u64 bodyLen | sha256(body) | u32 kFooterMagic.
// Appended (rather than prepended) so the footer can be computed in one
// pass and a truncated cache is detected by the missing magic alone.
constexpr std::size_t kFooterLen = 8 + 32 + 4;

/// Guarded size_t -> u32 narrowing for the count fields below. A count
/// that does not fit is a library bug (nothing in the simulator can grow
/// a 4-billion-entry table), so this is RC_CHECK, not ParseError.
std::uint32_t checkedU32(std::size_t n, const char* what) {
    RC_CHECK(n <= std::numeric_limits<std::uint32_t>::max(),
             std::string("cache count field overflows u32: ") + what);
    return static_cast<std::uint32_t>(n);
}

}  // namespace


Bytes RelyingParty::serializeState() const {
    Encoder e;
    e.u32(kMagic);
    e.str(name_);
    e.i64(options_.ts);
    e.i64(options_.tg);
    e.boolean(options_.checkIntermediateStates);

    e.u32(checkedU32(trustAnchors_.size(), "trust anchors"));
    for (const auto& ta : trustAnchors_) {
        const Bytes wire = ta.encode();
        e.bytes(ByteView(wire.data(), wire.size()));
    }

    e.u32(checkedU32(rcs_.size(), "RC records"));
    for (const auto& [uri, rec] : rcs_) {
        e.str(uri);
        const Bytes wire = rec.cert.encode();
        e.bytes(ByteView(wire.data(), wire.size()));
        e.u8(static_cast<std::uint8_t>(rec.status));
        e.boolean(rec.stale);
        e.i64(rec.lastChange);
        e.str(rec.pointUri);
        e.str(rec.filename);
        e.digest(rec.fileHash);
    }

    e.u32(checkedU32(points_.size(), "point caches"));
    for (const auto& [uri, pc] : points_) {
        e.str(uri);
        e.boolean(pc.have);
        if (pc.have) {
            const Bytes wire = pc.manifest.encode();
            e.bytes(ByteView(wire.data(), wire.size()));
        }
        e.u32(checkedU32(pc.files.size(), "point files"));
        for (const auto& [filename, bytes] : pc.files) {
            e.str(filename);
            e.bytes(ByteView(bytes.data(), bytes.size()));
        }
        e.boolean(pc.stale);
    }

    const auto& alarms = alarms_.all();
    e.u32(checkedU32(alarms.size(), "alarms"));
    for (const auto& a : alarms) {
        e.u8(static_cast<std::uint8_t>(a.type));
        e.str(a.victim);
        e.str(a.perpetrator);
        e.boolean(a.accountable);
        e.str(a.detail);
        e.i64(a.raisedAt);
    }

    e.u32(checkedU32(deadSeen_.size(), "dead serials"));
    for (const auto& [uri, serial] : deadSeen_) {
        e.str(uri);
        e.u64(serial);
    }
    e.u32(checkedU32(deadsSeenFull_.size(), "dead objects"));
    for (const auto& d : deadsSeenFull_) {
        const Bytes wire = d.encode();
        e.bytes(ByteView(wire.data(), wire.size()));
    }
    e.u32(checkedU32(successors_.size(), "successors"));
    for (const auto& [from, to] : successors_) {
        e.str(from);
        e.str(to);
    }
    e.u32(checkedU32(hashWindow_.size(), "hash window"));
    for (const auto& h : hashWindow_) {
        e.i64(h.when);
        e.str(h.pointUri);
        e.u64(h.number);
        e.digest(h.bodyHash);
    }
    e.i64(lastSyncTime_);

    // Integrity footer: a truncated or bit-flipped cache must fail with a
    // precise checksum error before any field is interpreted, never with a
    // mid-stream decode error that might half-apply.
    const std::size_t bodyLen = e.view().size();
    const Digest digest = sha256(ByteView(e.view().data(), bodyLen));
    e.u64(bodyLen);
    e.digest(digest);
    e.u32(kFooterMagic);
    return e.take();
}

RelyingParty RelyingParty::deserializeState(ByteView data, obs::Registry* registry) {
    if (data.size() < kFooterLen) {
        throw ParseError("cache has no integrity footer (truncated or not a cache)");
    }
    const ByteView body = data.subspan(0, data.size() - kFooterLen);
    Decoder f(data.subspan(body.size()));
    const std::uint64_t bodyLen = f.u64();
    const Digest stored = f.digest();
    if (f.u32() != kFooterMagic || bodyLen != body.size()) {
        throw ParseError("cache has no integrity footer (truncated or not a cache)");
    }
    const Digest actual = sha256(body);
    if (actual != stored) {
        throw ParseError("cache checksum mismatch: footer says " + stored.shortHex() +
                         ", content hashes to " + actual.shortHex());
    }

    Decoder d(body);
    if (d.u32() != kMagic) throw ParseError("not a relying-party cache (bad magic)");
    const std::string name = d.str();
    RpOptions options;
    options.ts = d.i64();
    options.tg = d.i64();
    options.checkIntermediateStates = d.boolean();

    std::vector<ResourceCert> tas;
    const std::uint32_t nTas = d.u32();
    if (nTas > 1000) throw ParseError("implausible trust-anchor count");
    for (std::uint32_t i = 0; i < nTas; ++i) {
        const Bytes wire = d.bytes();
        tas.push_back(ResourceCert::decode(ByteView(wire.data(), wire.size())));
    }
    RelyingParty rp(name, tas, options, registry);
    rp.rcs_.clear();  // the constructor seeded TA records; the cache has them

    const std::uint32_t nRcs = d.u32();
    if (nRcs > 10000000) throw ParseError("implausible RC count");
    for (std::uint32_t i = 0; i < nRcs; ++i) {
        const std::string uri = d.str();
        RcRecord rec;
        const Bytes wire = d.bytes();
        rec.cert = ResourceCert::decode(ByteView(wire.data(), wire.size()));
        const std::uint8_t status = d.u8();
        if (status > 3) throw ParseError("bad RC status in cache");
        rec.status = static_cast<RcStatus>(status);
        rec.stale = d.boolean();
        rec.lastChange = d.i64();
        rec.pointUri = d.str();
        rec.filename = d.str();
        rec.fileHash = d.digest();
        rp.rcs_.emplace(uri, std::move(rec));
    }

    const std::uint32_t nPoints = d.u32();
    if (nPoints > 10000000) throw ParseError("implausible point count");
    for (std::uint32_t i = 0; i < nPoints; ++i) {
        const std::string uri = d.str();
        PointCache pc;
        pc.have = d.boolean();
        if (pc.have) {
            const Bytes wire = d.bytes();
            pc.manifest = Manifest::decode(ByteView(wire.data(), wire.size()));
        }
        const std::uint32_t nFiles = d.u32();
        if (nFiles > 10000000) throw ParseError("implausible file count");
        for (std::uint32_t j = 0; j < nFiles; ++j) {
            const std::string filename = d.str();
            pc.files.emplace(filename, d.bytes());
        }
        pc.stale = d.boolean();
        rp.points_.emplace(uri, std::move(pc));
    }

    const std::uint32_t nAlarms = d.u32();
    if (nAlarms > 10000000) throw ParseError("implausible alarm count");
    for (std::uint32_t i = 0; i < nAlarms; ++i) {
        Alarm a;
        const std::uint8_t type = d.u8();
        if (type > 5) throw ParseError("bad alarm type in cache");
        a.type = static_cast<AlarmType>(type);
        a.victim = d.str();
        a.perpetrator = d.str();
        a.accountable = d.boolean();
        a.detail = d.str();
        a.raisedAt = d.i64();
        // restore(), not raise(): these alarms were counted in
        // rc_alarms_total when first raised; replaying a cache must not
        // book them again.
        rp.alarms_.restore(std::move(a));
    }

    const std::uint32_t nDead = d.u32();
    if (nDead > 10000000) throw ParseError("implausible dead-seen count");
    for (std::uint32_t i = 0; i < nDead; ++i) {
        const std::string uri = d.str();
        const std::uint64_t serial = d.u64();
        rp.deadSeen_.insert({uri, serial});
    }
    const std::uint32_t nDeadFull = d.u32();
    if (nDeadFull > 10000000) throw ParseError("implausible dead-object count");
    for (std::uint32_t i = 0; i < nDeadFull; ++i) {
        const Bytes wire = d.bytes();
        rp.deadsSeenFull_.push_back(DeadObject::decode(ByteView(wire.data(), wire.size())));
    }
    const std::uint32_t nSucc = d.u32();
    if (nSucc > 10000000) throw ParseError("implausible successor count");
    for (std::uint32_t i = 0; i < nSucc; ++i) {
        const std::string from = d.str();
        rp.successors_.emplace(from, d.str());
    }
    const std::uint32_t nHash = d.u32();
    if (nHash > 10000000) throw ParseError("implausible hash-window size");
    for (std::uint32_t i = 0; i < nHash; ++i) {
        ObtainedHash h;
        h.when = d.i64();
        h.pointUri = d.str();
        h.number = d.u64();
        h.bodyHash = d.digest();
        rp.hashWindow_.push_back(std::move(h));
    }
    rp.lastSyncTime_ = d.i64();
    d.expectEnd();
    return rp;
}

}  // namespace rpkic::rp
