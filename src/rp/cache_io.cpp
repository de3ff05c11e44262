// Serialization of the relying party's persistent state. Versioned,
// strict: any mismatch throws ParseError rather than resuming from a
// half-understood cache (a wrong cache could mask a unilateral
// revocation).
//
// One body format, with one encoder and one decoder per record kind
// (StateCodec below):
//  * the delta (serializeDelta): the records one round wrote, which the
//    durable store's delta frames carry (docs/DURABILITY.md);
//  * the image (serializeState): a header naming the relying party, then
//    the delta from a fresh relying party with that header to this state.
//    deserializeState() builds the fresh one and applies that delta.
// Neither carries a checksum of its own: on disk both live inside WAL
// frames, whose digest is the one integrity check.
#include "rp/relying_party.hpp"

#include <limits>

#include "rp/durable_store.hpp"
#include "rpki/encoding.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

namespace {
constexpr std::uint32_t kMagic = 0x52504332;       // "RPC2", leads an image
constexpr std::uint32_t kDeltaMagic = 0x52504431;  // "RPD1", leads a delta

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

/// A counted list of the records of `map` that `keys` names, or of all of
/// them when `keys` is null, each written by `put`.
template <typename Map, typename Put>
void putRecords(Encoder& e, const Map& map, const std::set<std::string>* keys, const char* what,
                Put put) {
    if (keys == nullptr) {
        e.u32(checkedU32(map.size(), what));
        for (const auto& [key, value] : map) put(e, key, value);
        return;
    }
    e.u32(checkedU32(keys->size(), what));
    for (const std::string& key : *keys) put(e, key, map.at(key));
}

}  // namespace

/// One encoder and one decoder per record kind, and the delta body that
/// the image and the delta share.
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

    static void putSuccessor(Encoder& e, const std::string& from, const std::string& to) {
        e.str(from);
        e.str(to);
    }

    /// Layout (docs/DURABILITY.md): u32 "RPD1" | u64 alarms, dead objects
    /// and hash-window entries the base holds | i64 lastSyncTime | RC
    /// records | point caches | new alarms | new dead objects | successors
    /// | u32 window pops | window pushes. The base is the last clearDelta()
    /// or, when `whole`, a fresh relying party: then every record is named.
    /// Records are whole: a delta replaces each record it names, so
    /// applying it twice changes nothing beyond the tails, which the base
    /// counts pin.
    static void putDelta(Encoder& e, const RelyingParty& rp, bool whole) {
        const RelyingParty::Changes fresh;
        const RelyingParty::Changes& base = whole ? fresh : rp.changes_;
        e.u32(kDeltaMagic);
        e.u64(base.alarms);
        e.u64(base.deads);
        e.u64(base.window + base.windowPopped);
        e.i64(rp.lastSyncTime_);

        putRecords(e, rp.rcs_, whole ? nullptr : &base.rcs, "RC records", putRc);
        putRecords(e, rp.points_, whole ? nullptr : &base.points, "point caches", putPoint);
        const auto& alarms = rp.alarms_.all();
        e.u32(checkedU32(alarms.size() - base.alarms, "alarms"));
        for (std::size_t i = base.alarms; i < alarms.size(); ++i) putAlarm(e, alarms[i]);
        const auto& deads = rp.deadsSeenFull_;
        e.u32(checkedU32(deads.size() - base.deads, "dead objects"));
        for (std::size_t i = base.deads; i < deads.size(); ++i) putDead(e, deads[i]);
        putRecords(e, rp.successors_, whole ? nullptr : &base.successors, "successors",
                   putSuccessor);
        const auto& window = rp.hashWindow_;
        e.u32(checkedU32(base.windowPopped, "hash window pops"));
        e.u32(checkedU32(window.size() - base.window, "hash window pushes"));
        for (std::size_t i = base.window; i < window.size(); ++i) putHash(e, window[i]);
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
    StateCodec::putDelta(e, *this, /*whole=*/true);
    return e.take();
}

RelyingParty RelyingParty::deserializeState(ByteView data, obs::Registry* registry) {
    Decoder d(data);
    if (d.u32() != kMagic) throw ParseError("not a relying-party cache image (bad magic)");
    std::string name = d.str();
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
    RelyingParty rp(std::move(name), std::move(tas), options, registry);
    rp.applyDelta(d.rest());
    return rp;
}

RelyingParty RelyingParty::restore(const RecoveredState& saved, obs::Registry* registry) {
    RelyingParty rp = deserializeState(ByteView(saved.image.data(), saved.image.size()), registry);
    // I8: the store must return a state some commit produced, not a near
    // miss. Re-serializing the image has to reproduce its bytes exactly.
    if (!(rp.serializeState() == saved.image)) {
        throw ParseError("recovered image does not re-serialize byte-identically");
    }
    for (const Bytes& delta : saved.deltas) rp.applyDelta(ByteView(delta.data(), delta.size()));
    return rp;
}

Bytes RelyingParty::serializeDelta() const {
    Encoder e;
    StateCodec::putDelta(e, *this, /*whole=*/false);
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

    for (const auto& [uri, pc] : points) {
        if (pc.have) manifestsDecoded_->inc();
    }
    objectsDecoded_->inc(rcs.size() + deads.size());

    lastSyncTime_ = syncTime;
    for (auto& [uri, rec] : rcs) rcs_[uri] = std::move(rec);
    for (auto& [uri, pc] : points) {
        PointCache& cached = points_[uri];
        cached = std::move(pc);
        rebuildView(cached);
    }
    // restore(), not raise(): these alarms were counted in rc_alarms_total
    // when first raised; replaying a cache must not book them again.
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
