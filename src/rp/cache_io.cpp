// Serialization of the relying party's persistent state. Versioned,
// strict: any mismatch throws ParseError rather than resuming from a
// half-understood cache (a wrong cache could mask a unilateral
// revocation).
//
// Two formats share one encoder and one decoder per record kind
// (StateCodec below), so they cannot drift apart:
//  * the image (serializeState): the whole state behind an integrity
//    footer — the cache file and the store's image frame;
//  * the delta (serializeDelta): the records one round wrote, which the
//    durable store's delta frames carry (docs/DURABILITY.md).
#include "rp/relying_party.hpp"

#include <limits>

#include "crypto/sha256.hpp"
#include "rpki/encoding.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

namespace {
constexpr std::uint32_t kMagic = 0x52504331;       // "RPC1", leads the body
constexpr std::uint32_t kFooterMagic = 0x52504346;  // "RPCF", ends the blob
constexpr std::uint32_t kDeltaMagic = 0x52504431;   // "RPD1", leads a delta

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

/// A count field, refused above `limit` before anything is allocated.
std::uint32_t getCount(Decoder& d, std::uint32_t limit, const char* what) {
    const std::uint32_t n = d.u32();
    if (n > limit) throw ParseError(std::string("implausible ") + what);
    return n;
}

constexpr std::uint32_t kMaxRecords = 10000000;

/// A counted list of records, each read by `get`. Grows only as records
/// decode, so a forged count cannot allocate ahead of the input.
template <typename Get>
auto getList(Decoder& d, const char* what, Get get) {
    std::vector<decltype(get(d))> out;
    const std::uint32_t n = getCount(d, kMaxRecords, what);
    for (std::uint32_t i = 0; i < n; ++i) out.push_back(get(d));
    return out;
}

}  // namespace

/// One encoder and one decoder per record kind, shared by the image and
/// the delta.
struct StateCodec {
    static void putRc(Encoder& e, const std::string& uri, const RcRecord& rec) {
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
    static std::pair<std::string, RcRecord> getRc(Decoder& d) {
        std::string uri = d.str();
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
        return {std::move(uri), std::move(rec)};
    }

    static void putPoint(Encoder& e, const std::string& uri, const RelyingParty::PointCache& pc) {
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
    static std::pair<std::string, RelyingParty::PointCache> getPoint(Decoder& d) {
        std::string uri = d.str();
        RelyingParty::PointCache pc;
        pc.have = d.boolean();
        if (pc.have) {
            const Bytes wire = d.bytes();
            pc.manifest = Manifest::decode(ByteView(wire.data(), wire.size()));
        }
        const std::uint32_t nFiles = getCount(d, kMaxRecords, "file count");
        for (std::uint32_t j = 0; j < nFiles; ++j) {
            std::string filename = d.str();
            pc.files.emplace(std::move(filename), d.bytes());
        }
        pc.stale = d.boolean();
        return {std::move(uri), std::move(pc)};
    }

    static void putAlarm(Encoder& e, const Alarm& a) {
        e.u8(static_cast<std::uint8_t>(a.type));
        e.str(a.victim);
        e.str(a.perpetrator);
        e.boolean(a.accountable);
        e.str(a.detail);
        e.i64(a.raisedAt);
    }
    static Alarm getAlarm(Decoder& d) {
        Alarm a;
        const std::uint8_t type = d.u8();
        if (type > 5) throw ParseError("bad alarm type in cache");
        a.type = static_cast<AlarmType>(type);
        a.victim = d.str();
        a.perpetrator = d.str();
        a.accountable = d.boolean();
        a.detail = d.str();
        a.raisedAt = d.i64();
        return a;
    }

    static void putDead(Encoder& e, const DeadObject& dead) {
        const Bytes wire = dead.encode();
        e.bytes(ByteView(wire.data(), wire.size()));
    }
    static DeadObject getDead(Decoder& d) {
        const Bytes wire = d.bytes();
        return DeadObject::decode(ByteView(wire.data(), wire.size()));
    }

    static void putHash(Encoder& e, const RelyingParty::ObtainedHash& h) {
        e.i64(h.when);
        e.str(h.pointUri);
        e.u64(h.number);
        e.digest(h.bodyHash);
    }
    static RelyingParty::ObtainedHash getHash(Decoder& d) {
        RelyingParty::ObtainedHash h;
        h.when = d.i64();
        h.pointUri = d.str();
        h.number = d.u64();
        h.bodyHash = d.digest();
        return h;
    }
};

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
    for (const auto& [uri, rec] : rcs_) StateCodec::putRc(e, uri, rec);

    e.u32(checkedU32(points_.size(), "point caches"));
    for (const auto& [uri, pc] : points_) StateCodec::putPoint(e, uri, pc);

    const auto& alarms = alarms_.all();
    e.u32(checkedU32(alarms.size(), "alarms"));
    for (const auto& a : alarms) StateCodec::putAlarm(e, a);

    e.u32(checkedU32(deadSeen_.size(), "dead serials"));
    for (const auto& [uri, serial] : deadSeen_) {
        e.str(uri);
        e.u64(serial);
    }
    e.u32(checkedU32(deadsSeenFull_.size(), "dead objects"));
    for (const auto& d : deadsSeenFull_) StateCodec::putDead(e, d);
    e.u32(checkedU32(successors_.size(), "successors"));
    for (const auto& [from, to] : successors_) {
        e.str(from);
        e.str(to);
    }
    e.u32(checkedU32(hashWindow_.size(), "hash window"));
    for (const auto& h : hashWindow_) StateCodec::putHash(e, h);
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
    const std::uint32_t nTas = getCount(d, 1000, "trust-anchor count");
    for (std::uint32_t i = 0; i < nTas; ++i) {
        const Bytes wire = d.bytes();
        tas.push_back(ResourceCert::decode(ByteView(wire.data(), wire.size())));
    }
    RelyingParty rp(name, tas, options, registry);
    rp.rcs_.clear();  // the constructor seeded TA records; the cache has them

    const std::uint32_t nRcs = getCount(d, kMaxRecords, "RC count");
    for (std::uint32_t i = 0; i < nRcs; ++i) rp.rcs_.insert(StateCodec::getRc(d));

    const std::uint32_t nPoints = getCount(d, kMaxRecords, "point count");
    for (std::uint32_t i = 0; i < nPoints; ++i) rp.points_.insert(StateCodec::getPoint(d));

    const std::uint32_t nAlarms = getCount(d, kMaxRecords, "alarm count");
    for (std::uint32_t i = 0; i < nAlarms; ++i) {
        // restore(), not raise(): these alarms were counted in
        // rc_alarms_total when first raised; replaying a cache must not
        // book them again.
        rp.alarms_.restore(StateCodec::getAlarm(d));
    }

    const std::uint32_t nDead = getCount(d, kMaxRecords, "dead-seen count");
    for (std::uint32_t i = 0; i < nDead; ++i) {
        std::string uri = d.str();
        const std::uint64_t serial = d.u64();
        rp.deadSeen_.insert({std::move(uri), serial});
    }
    const std::uint32_t nDeadFull = getCount(d, kMaxRecords, "dead-object count");
    for (std::uint32_t i = 0; i < nDeadFull; ++i) {
        rp.deadsSeenFull_.push_back(StateCodec::getDead(d));
    }
    const std::uint32_t nSucc = getCount(d, kMaxRecords, "successor count");
    for (std::uint32_t i = 0; i < nSucc; ++i) {
        std::string from = d.str();
        rp.successors_.emplace(std::move(from), d.str());
    }
    const std::uint32_t nHash = getCount(d, kMaxRecords, "hash-window size");
    for (std::uint32_t i = 0; i < nHash; ++i) rp.hashWindow_.push_back(StateCodec::getHash(d));
    rp.lastSyncTime_ = d.i64();
    d.expectEnd();
    rp.clearDelta();
    return rp;
}

// Delta layout (docs/DURABILITY.md): u32 "RPD1" | u64 alarms, dead
// objects and hash-window entries the base holds | i64 lastSyncTime |
// RC records | point caches | new alarms | new dead objects | successors
// | u32 window pops | window pushes. Records are whole: a delta replaces
// each record it names, so applying it twice changes nothing beyond the
// tails, which the base counts pin.
Bytes RelyingParty::serializeDelta() const {
    Encoder e;
    e.u32(kDeltaMagic);
    e.u64(changes_.alarms);
    e.u64(changes_.deads);
    e.u64(changes_.window + changes_.windowPopped);
    e.i64(lastSyncTime_);

    e.u32(checkedU32(changes_.rcs.size(), "RC records"));
    for (const std::string& uri : changes_.rcs) StateCodec::putRc(e, uri, rcs_.at(uri));
    e.u32(checkedU32(changes_.points.size(), "point caches"));
    for (const std::string& uri : changes_.points) {
        StateCodec::putPoint(e, uri, points_.at(uri));
    }
    const auto& alarms = alarms_.all();
    e.u32(checkedU32(alarms.size() - changes_.alarms, "alarms"));
    for (std::size_t i = changes_.alarms; i < alarms.size(); ++i) {
        StateCodec::putAlarm(e, alarms[i]);
    }
    e.u32(checkedU32(deadsSeenFull_.size() - changes_.deads, "dead objects"));
    for (std::size_t i = changes_.deads; i < deadsSeenFull_.size(); ++i) {
        StateCodec::putDead(e, deadsSeenFull_[i]);
    }
    e.u32(checkedU32(changes_.successors.size(), "successors"));
    for (const std::string& from : changes_.successors) {
        e.str(from);
        e.str(successors_.at(from));
    }
    e.u32(checkedU32(changes_.windowPopped, "hash window pops"));
    e.u32(checkedU32(hashWindow_.size() - changes_.window, "hash window pushes"));
    for (std::size_t i = changes_.window; i < hashWindow_.size(); ++i) {
        StateCodec::putHash(e, hashWindow_[i]);
    }
    return e.take();
}

void RelyingParty::clearDelta() {
    changes_.rcs.clear();
    changes_.points.clear();
    changes_.successors.clear();
    changes_.alarms = alarms_.count();
    changes_.deads = deadsSeenFull_.size();
    changes_.window = hashWindow_.size();
    changes_.windowPopped = 0;
}

void RelyingParty::applyDelta(ByteView delta) {
    // Decode everything first: a malformed delta throws before the state
    // is touched.
    Decoder d(delta);
    if (d.u32() != kDeltaMagic) throw ParseError("not a relying-party delta (bad magic)");
    const std::uint64_t alarmBase = d.u64();
    const std::uint64_t deadBase = d.u64();
    const std::uint64_t windowBase = d.u64();
    const Time syncTime = d.i64();

    auto rcs = getList(d, "RC count", StateCodec::getRc);
    auto points = getList(d, "point count", StateCodec::getPoint);
    auto alarms = getList(d, "alarm count", StateCodec::getAlarm);
    auto deads = getList(d, "dead-object count", StateCodec::getDead);
    auto successors = getList(d, "successor count", [](Decoder& in) {
        std::string from = in.str();
        return std::pair<std::string, std::string>(std::move(from), in.str());
    });
    const std::uint32_t pops = d.u32();
    auto pushes = getList(d, "hash-window size", StateCodec::getHash);
    d.expectEnd();

    if (alarmBase != alarms_.count() || deadBase != deadsSeenFull_.size() ||
        windowBase != hashWindow_.size() || pops > windowBase) {
        throw ParseError("delta does not extend this state (base alarms " +
                         std::to_string(alarmBase) + ", dead objects " +
                         std::to_string(deadBase) + ", hash window " +
                         std::to_string(windowBase) + ")");
    }

    lastSyncTime_ = syncTime;
    for (auto& [uri, rec] : rcs) rcs_[uri] = std::move(rec);
    for (auto& [uri, pc] : points) points_[uri] = std::move(pc);
    // restore(), not raise(): counted when first raised (see above).
    for (Alarm& a : alarms) alarms_.restore(std::move(a));
    for (DeadObject& dead : deads) {
        deadSeen_.insert({dead.rcUri, dead.rcSerial});
        deadsSeenFull_.push_back(std::move(dead));
    }
    for (auto& [from, to] : successors) successors_[from] = std::move(to);
    hashWindow_.erase(hashWindow_.begin(), hashWindow_.begin() + pops);
    for (ObtainedHash& h : pushes) hashWindow_.push_back(std::move(h));
    clearDelta();
}

}  // namespace rpkic::rp
