// The relying party of the redesigned RPKI (paper §5.4 + Appendix B).
//
// A RelyingParty maintains a local cache per publication point and updates
// it *incrementally*: one publication point and one consecutive manifest
// (along the horizontal hash chain) at a time, reconstructing every
// intermediate state from the preserved manifests/objects and hints the
// authority is required to keep (§5.3.2). Each transition runs:
//
//  * syntax checks (chain hashes, sequential numbers, monotone serials,
//    no RC logged beside its own .dead/.roll) -> invalid-syntax alarms;
//  * per-RC procedures per Table 10 (New / Deleted / Overwritten / Rolled)
//    -> child-too-broad and unilateral-revocation alarms;
//  * rollover checks Check0-3 of Appendix B.2.3 -> bad-key-rollover alarms;
//  * missing-information alarms whenever an object or manifest cannot be
//    obtained, with the previous version marked "stale".
//
// The global consistency check (§5.4) compares manifest hashes between two
// relying parties and raises global-inconsistency alarms, defeating mirror
// worlds (Theorems 5.2, 5.3).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "detector/state.hpp"
#include "obs/obs.hpp"
#include "rp/alarms.hpp"
#include "rp/file_index.hpp"
#include "rpki/objects.hpp"
#include "rpki/repository.hpp"

namespace rpkic::rp {

struct RecoveredState;  // rp/durable_store.hpp

struct RpOptions {
    Duration ts = 3;  ///< max interval between syncs to any point
    Duration tg = 6;  ///< global consistency window
    /// §5.6 Counterexample 1: when false, the relying party diffs only its
    /// previous state against the current one (the naive behaviour the
    /// paper shows is insufficient). Exists so tests and benches can
    /// demonstrate why intermediate-state reconstruction is necessary.
    bool checkIntermediateStates = true;
};

/// The RC designations of Appendix B (mutually exclusive), plus the
/// orthogonal "stale" flag.
enum class RcStatus : std::uint8_t {
    Valid,
    NoLongerValid,
    RolledOver,
    NeverWasValid,
};

std::string_view toString(RcStatus s);

struct RcRecord {
    ResourceCert cert;
    RcStatus status = RcStatus::Valid;
    bool stale = false;
    Time lastChange = 0;
    // Where the RC file lives (the issuer's publication point) and the hash
    // of its file bytes — the context needed for .dead/.roll verification
    // and rollover Check1.
    std::string pointUri;
    std::string filename;
    Digest fileHash;
};

/// What Bob posts for the global consistency check: the latest manifest he
/// obtained for each publication point. (The paper exchanges bare hashes;
/// carrying the point and number alongside models the context Alice would
/// request when investigating, and determines accountability.)
struct ManifestClaim {
    std::string pointUri;
    std::uint64_t number = 0;
    Digest bodyHash;
};

class RelyingParty {
public:
    /// `registry` receives the rc_rp_* / rc_alarms_total metric families,
    /// labelled with this relying party's name; nullptr means
    /// obs::Registry::global().
    RelyingParty(std::string name, std::vector<ResourceCert> trustAnchors,
                 RpOptions options = {}, obs::Registry* registry = nullptr);

    /// Answers the walk's request for one level's points with the files
    /// obtained (a point left out was not), valid until the next request.
    using LevelSource = std::function<const Snapshot&(const std::vector<std::string>& points)>;
    /// Runs the local consistency check on every reachable publication
    /// point, breadth first from the trust anchors (ancestors before
    /// descendants), one level at a time: `fetchLevel` gives each level's
    /// points before they are processed.
    void sync(const LevelSource& fetchLevel, Time now);
    /// The same walk over a snapshot already held.
    void sync(const Snapshot& snap, Time now) {
        sync([&snap](const std::vector<std::string>&) -> const Snapshot& { return snap; }, now);
    }

    // --- alarm access -------------------------------------------------------
    const AlarmLog& alarms() const { return alarms_; }

    /// Routes future alarms into `recorder` as flight events (see
    /// AlarmLog::attachRecorder). nullptr detaches.
    void attachAlarmRecorder(obs::FlightRecorder* recorder) {
        alarms_.attachRecorder(recorder);
    }

    // --- validity outputs ---------------------------------------------------
    /// The current set of valid ROAs (descending only through Valid RCs;
    /// stale objects are retained per §5.3.2 — "revert to an older set"),
    /// decoded from their files.
    std::vector<Roa> validRoas() const;
    /// The tuples of validRoas(), read from the points' decoded views
    /// without decoding a file. `roaCount`, if given, receives
    /// validRoas().size().
    RpkiState roaState(std::size_t* roaCount = nullptr) const;

    /// What this relying party holds at `pointUri` (see HeldPoint): nullopt
    /// until a fetched manifest becomes the point's head, and again after a
    /// restore or a naive-mode or post-rollover head change, until the
    /// point's manifest is fetched again. The view refers into this
    /// relying party and is valid until it next processes that point.
    std::optional<HeldPoint> heldPoint(const std::string& pointUri) const;

    const RcRecord* findRc(const std::string& uri) const;
    /// True if the last sync could not obtain this publication point's
    /// current state ("stale" designation, §5.3.2): its objects are
    /// retained but flagged.
    bool isPointStale(const std::string& pointUri) const;
    /// All RC records (for theorem oracles).
    const std::map<std::string, RcRecord>& rcRecords() const { return rcs_; }
    /// True if this RP has verified a .dead signed by (rcUri, serial).
    bool sawDeadFor(const std::string& rcUri, std::uint64_t serial) const;
    /// The URI of the RC this one rolled over to, if this RP observed a
    /// successful key rollover (Theorem 5.1's successor relation).
    const std::string* successorOf(const std::string& rcUri) const;
    /// True if this RP verified a .dead from (rcUri, serial) consenting to
    /// removal of resources overlapping `r`.
    bool sawDeadForResources(const std::string& rcUri, const ResourceSet& r) const;

    // --- global consistency check (§5.4) ------------------------------------
    /// The latest manifest obtained for each point (what Bob publishes).
    std::vector<ManifestClaim> exportManifestClaims() const;
    /// Alice's side: checks Bob's claims against every manifest hash she
    /// obtained within tg. Raises global-inconsistency alarms.
    void globalConsistencyCheck(const std::vector<ManifestClaim>& fromOther, Time now);

    const std::string& name() const { return name_; }
    const std::vector<ResourceCert>& trustAnchors() const { return trustAnchors_; }
    /// `now` of the last sync() (0 before the first): the clock a resumed
    /// relying party continues from.
    Time lastSyncTime() const { return lastSyncTime_; }

    // --- persistence ---------------------------------------------------------
    /// Serializes the complete relying-party state — point caches, RC
    /// records, alarm log, consent registry, hash window — so a store can
    /// persist it and a restarted relying party keeps detecting transitions
    /// across process lifetimes. The image is a header (name, options,
    /// trust anchors) and then the delta from a fresh relying party with
    /// that header to this state. It carries no checksum: on disk it lives
    /// in a WAL frame (rp/durable_store.hpp), whose digest covers it.
    Bytes serializeState() const;
    /// Restores a relying party from serializeState() output: builds the
    /// fresh relying party the header names and applies the body through
    /// applyDelta(). Throws ParseError on malformed input. `registry` is
    /// forwarded to the restored instance (nullptr = global), so
    /// crash-recovery harnesses keep their run-local metrics registries.
    static RelyingParty deserializeState(ByteView data, obs::Registry* registry = nullptr);
    /// Composes what DurableStore::open() recovered (which must hold an
    /// image): deserializes the image, checks that it re-serializes to the
    /// same bytes (I8), then applies each delta in LSN order. Throws
    /// ParseError if any step refuses.
    static RelyingParty restore(const RecoveredState& saved, obs::Registry* registry = nullptr);

    /// Encodes what changed since the delta's base (the last clearDelta(),
    /// deserializeState() or applyDelta(), else construction): the RC
    /// records, point caches and successors written, the new alarms and
    /// verified .dead objects, the hash window's pops and pushes, and the
    /// sync clock. serializeState() writes the same body, naming every
    /// record, so applyDelta() on the base yields this state byte for byte.
    Bytes serializeDelta() const;
    /// Makes the current state the base of the next delta.
    void clearDelta();
    /// Applies serializeDelta() output taken against this exact state, then
    /// makes the result the next delta's base. Strict and all-or-nothing:
    /// malformed input, or a delta whose base counts do not match this
    /// state, throws ParseError and leaves the state unchanged.
    void applyDelta(ByteView delta);

private:
    /// A manifest file that verified, and the issuer key it verified under.
    struct VerifiedManifest {
        Digest fileHash;
        PublicKey key;
        bool operator==(const VerifiedManifest&) const = default;
    };

    /// The logged objects of one point, decoded: each RC's URI and
    /// publication point and each ROA's issuer, origin and prefixes, in
    /// file order. Files that are neither, or do not decode, have no entry.
    struct PointView {
        struct RcEntry {
            std::string uri;
            std::string pubPointUri;
        };
        struct RoaEntry {
            std::string filename;
            std::string parentUri;
            Asn asn = 0;
            std::vector<RoaPrefix> prefixes;
        };
        std::vector<RcEntry> rcs;
        std::vector<RoaEntry> roas;
    };

    struct PointCache {
        bool have = false;
        Manifest manifest;                 // head of the processed chain
        std::map<std::string, Bytes> files;  // logged object bytes we obtained
        bool stale = false;
        /// The last manifest that verified here. Serving the same file under
        /// the same issuer key again skips only the signature check, which
        /// is a pure function of both. Not serialized.
        std::optional<VerifiedManifest> verified;
        /// The fetched bytes `manifest` was decoded from, and their digest;
        /// empty when the head was written any other way (setHead). Fetched
        /// bytes equal to these decode to `manifest`. Not serialized.
        Bytes headBytes;
        Digest headDigest;
        /// `files` decoded; rebuilt at every write of `files`. Not serialized.
        PointView view;
    };

    /// The bytes a fetched manifest was decoded from, and their digest.
    struct ManifestFile {
        const Bytes& bytes;
        const Digest& digest;
    };

    struct ObtainedHash {
        Time when;
        std::string pointUri;
        std::uint64_t number;
        Digest bodyHash;
    };

    // -- sync machinery --
    void processPoint(const std::string& pointUri, const Snapshot& snap, Time now);
    void initialPointSync(PointCache& pc, const std::string& pointUri, const Manifest& m,
                          const ManifestFile& file, const Snapshot& snap, Time now);
    /// `curFile` is the fetched file `cur` was decoded from, or null.
    void processTransition(PointCache& pc, const std::string& pointUri, const Manifest& prev,
                           const Manifest& cur, const ManifestFile* curFile,
                           const Snapshot& snap, Time now);
    /// Resolves the bytes for every entry of `m`; missing entries raise
    /// missing-information alarms. Returns map filename -> bytes.
    std::map<std::string, Bytes> resolveFiles(const PointCache& pc, const std::string& pointUri,
                                              const Manifest& m, const Snapshot& snap, Time now,
                                              bool* complete);
    void markPointStale(PointCache& pc, const std::string& pointUri, Time now);
    /// Every write of a point's head goes through here: with the fetched
    /// file it was decoded from, or with null, which forgets the bytes.
    static void setHead(PointCache& pc, const Manifest& m, const ManifestFile* file);
    /// Gives a held head that keeps no bytes (after a restore, or a head
    /// write without them) the bytes of `fetched`, decoded from `file`, if
    /// `fetched` is that head field for field: number, body (by its hash)
    /// and signature. Returns whether `fetched` is the head.
    bool relearnHeadBytes(PointCache& pc, const Manifest& fetched, const ManifestFile& file);
    static std::optional<HeldPoint> heldOf(const PointCache& pc);
    /// Decodes `pc.files` into `pc.view`.
    void rebuildView(PointCache& pc);
    /// T::decode of `bytes`, counted in the cost ledger.
    template <typename T>
    T decode(const Bytes& bytes);
    /// verifyObject(), counted in the cost ledger.
    template <typename T>
    bool verify(const T& object, const PublicKey& key);
    /// Calls fn(pc, roa) for every valid ROA, in validRoas() order.
    template <typename Fn>
    void forEachValidRoa(Fn&& fn) const;

    // -- Table 10 procedures (Appendix B.2.4) --
    struct TransitionContext {
        const std::string& pointUri;
        const std::string& ownerUri;  // RC issuing `cur` (B, or B' after rollover)
        const Manifest& prev;
        const Manifest& cur;
        const std::map<std::string, Bytes>& prevFiles;
        const std::map<std::string, Bytes>& curFiles;
        std::vector<DeadObject> deads;  // verified .dead objects logged in cur
        std::vector<RollObject> rolls;  // verified .roll objects logged in cur
        bool keyRollover = false;       // cur follows a post-rollover manifest
        Time now;
    };
    void newRcProcedure(TransitionContext& ctx, const std::string& filename,
                        const ResourceCert& cert);
    void deletedRcProcedure(TransitionContext& ctx, const std::string& filename,
                            const ResourceCert& cert, const Bytes& certBytes);
    void overwrittenRcProcedure(TransitionContext& ctx, const std::string& filename,
                                const ResourceCert& oldCert, const Bytes& oldBytes,
                                const ResourceCert& newCert);
    /// Appendix B.2.3 Check0-3. Returns the successor URI on success.
    std::optional<std::string> checkRollover(const std::string& pointUri, const Manifest& post,
                                             Time now);

    /// Marks an RC and every cached descendant NoLongerValid.
    void markSubtreeNoLongerValid(const std::string& rcUri, Time now);
    /// Re-evaluates descendants after a resource gain (Overwritten case 2).
    void reevaluateSubtree(const std::string& rcUri, Time now);
    /// The effective (inherit-resolved) resources of a cached RC, walking
    /// up to the trust anchor. Returns nullopt if an ancestor is missing.
    std::optional<ResourceSet> effectiveResourcesOf(const std::string& rcUri) const;

    /// The record for `uri`, created if absent, marked as changed.
    RcRecord& writeRc(const std::string& uri);

    /// Valid children (RC records) logged in the cached point of `rcUri`.
    std::vector<const RcRecord*> cachedChildren(const std::string& rcUri) const;

    std::string name_;
    RpOptions options_;
    std::vector<ResourceCert> trustAnchors_;
    std::map<std::string, PointCache> points_;  // by pubPointUri
    std::map<std::string, RcRecord> rcs_;       // by RC uri
    AlarmLog alarms_;
    std::set<std::pair<std::string, std::uint64_t>> deadSeen_;
    std::vector<DeadObject> deadsSeenFull_;
    std::map<std::string, std::string> successors_;  // old RC uri -> new RC uri
    std::deque<ObtainedHash> hashWindow_;
    Time lastSyncTime_ = 0;

    /// What changed since the delta's base. Bounded by the state's own
    /// size whether or not anything consumes it: keys of records that
    /// exist (nothing is ever erased) and positions in the append-only
    /// tails.
    struct Changes {
        std::set<std::string> rcs;
        std::set<std::string> points;
        std::set<std::string> successors;
        std::size_t alarms = 0;        ///< alarm log length at the base
        std::size_t deads = 0;         ///< deadsSeenFull_ length at the base
        std::size_t window = 0;        ///< base hash-window entries still held
        std::size_t windowPopped = 0;  ///< base hash-window entries expired
    };
    Changes changes_;
    friend struct StateCodec;  // cache_io.cpp: the one codec of images and deltas

    // -- instruments (owned by registry_; see docs/OBSERVABILITY.md) --
    obs::Registry* registry_ = nullptr;
    obs::Counter* syncsTotal_ = nullptr;
    obs::Counter* transitionsTotal_ = nullptr;
    /// Table-10 procedure latencies (RC1-RC4 ~ new/deleted/overwritten/rolled).
    obs::Histogram* procNew_ = nullptr;
    obs::Histogram* procDeleted_ = nullptr;
    obs::Histogram* procOverwritten_ = nullptr;
    obs::Histogram* procRollover_ = nullptr;
    /// Manifests reconstructed per point sync (§5.3.2 chain depth).
    obs::Histogram* chainDepth_ = nullptr;
    /// The cost ledger: what sync() and restore decode and verify.
    obs::Counter* manifestsDecoded_ = nullptr;
    obs::Counter* objectsDecoded_ = nullptr;
    obs::Counter* signaturesVerified_ = nullptr;
};

/// The rc_rp_manifests_decoded_total series of the relying party
/// `rpName`, which its SyncEngine's probe also counts into.
obs::Counter& manifestsDecodedCounter(obs::Registry& registry, const std::string& rpName);

}  // namespace rpkic::rp
