// Durable, crash-consistent state store for the relying party.
//
// The paper's security argument (§5) assumes each relying party carries a
// trustworthy local history — hash-chained manifests, serial numbers,
// consent state — forward across runs. A cache that is lost or half-written
// after a crash is exactly the "mask a unilateral revocation" failure the
// cache_io header warns about. This store makes the RP state survive being
// killed at any instruction:
//
//  * commit(state, meta) appends one length+SHA-256-framed record to a
//    write-ahead log and fsyncs it. The first commit after open() writes
//    the full image; every later one writes the round's delta. The fsync
//    is the commit point: after it returns, recovery is guaranteed to see
//    this state (or a later one); before it returns, recovery sees the
//    previous committed state. There is no instruction at which recovery
//    can observe anything else.
//  * Every `checkpointEvery` commits the store folds the image into a
//    checkpoint file via the classic write-temp/fsync/rename recipe, then
//    resets the WAL. The rename is atomic, so a crash anywhere in the fold
//    leaves either the old (checkpoint, WAL) pair or the new one.
//  * open() recovers: the newest image that passes its checksum (the
//    newest checkpoint, or an image frame written after it) plus the
//    LSN-consecutive deltas written against it, from the longest valid
//    prefix of the WAL. It discards the torn tail and reports exactly what
//    was kept and what was dropped. If anything was discarded, the store
//    rewrites the WAL to its valid prefix before accepting new commits, so
//    fresh records are never appended after garbage.
//
// The store never holds the state: commit() asks its caller for the image
// or the delta only when it writes one, and open() hands what it recovered
// to the caller to compose. Frame and file formats are documented in
// docs/DURABILITY.md. All I/O goes through vfs::Vfs, so the exhaustive
// crash-point sweep (sim/crash_sweep.hpp) can enumerate every mutating
// operation as a crash site against MemVfs and prove the pre-or-post
// property above.
//
// Failure semantics: an IoError thrown from commit() means "the commit did
// not happen" — but the WAL tail may now hold a partial frame, so the store
// poisons itself and refuses further commits until it is reopened
// (recovery repairs the tail).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/vfs.hpp"

namespace rpkic::rp {

struct StoreOptions {
    /// Fold the WAL into a checkpoint after this many commits. 0 never
    /// folds: every frame since the last fold stays in the WAL.
    std::uint32_t checkpointEvery = 8;
    /// Instance label on the rc_store_* metric families.
    std::string name = "rp";
};

/// What open() found on disk and what it had to throw away. `recovered`
/// is false when no image survived (a pristine directory, or deltas whose
/// image was lost).
struct RecoveryReport {
    bool recovered = false;              ///< an image (and its deltas) was found
    bool usedCheckpoint = false;         ///< a valid checkpoint was loaded
    std::uint64_t checkpointSeq = 0;     ///< LSN folded into that checkpoint
    std::uint64_t walRecordsReplayed = 0;    ///< WAL frames in the recovered chain
    std::uint64_t walRecordsSkipped = 0;     ///< valid frames a newer image supersedes
    std::uint64_t walRecordsOrphaned = 0;    ///< valid deltas whose image was lost
    std::uint64_t tornBytesDiscarded = 0;    ///< WAL tail bytes dropped
    std::uint64_t corruptRecordsDiscarded = 0;      ///< checksum-failed frames
    std::uint64_t corruptCheckpointsDiscarded = 0;  ///< checksum-failed ckpts
    bool repaired = false;               ///< open() removed or rewrote files to heal

    /// One-line human summary for logs and soak reports.
    std::string summary() const;
};

/// The committed state open() recovered, for the caller to compose: the
/// newest surviving image and the deltas written against it, oldest
/// first. Empty (lsn 0) when nothing was recovered.
struct RecoveredState {
    Bytes image;
    std::vector<Bytes> deltas;
    std::uint64_t meta = 0;  ///< meta of the newest recovered frame
    std::uint64_t lsn = 0;   ///< its LSN
    bool operator==(const RecoveredState&) const = default;
};

/// One commit's bytes, built only when the store writes them: `image` for
/// the first frame after open() and for each fold's checkpoint, `delta`
/// (the changes since the previous commit) for every other frame. Each is
/// called at most once per commit.
struct CommitSource {
    std::function<Bytes()> image;
    std::function<Bytes()> delta;
};

/// Write-ahead log + atomic checkpoints over a Vfs. Single-threaded, like
/// the RelyingParty it persists. Layout inside `dir`:
///
///   wal.log          length+SHA-256-framed image and delta frames
///   ckpt-<lsn>.bin   checkpoint holding the image committed at <lsn>
///   ckpt.tmp         in-flight checkpoint (never read by recovery)
///   wal.tmp          in-flight WAL repair (never read by recovery)
class DurableStore {
public:
    /// Does not touch the filesystem; call open() before commit().
    /// `registry` nullptr means obs::Registry::global().
    DurableStore(vfs::Vfs& fs, std::string dir, StoreOptions options = {},
                 obs::Registry* registry = nullptr);

    /// Routes future commits into `recorder` as StoreCommit flight events
    /// (component = "store/<name>", detail = lsn/meta/frame kind/bytes).
    /// nullptr detaches. Recovery never records — replayed commits were in
    /// the ring when first made.
    void attachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

    DurableStore(const DurableStore&) = delete;
    DurableStore& operator=(const DurableStore&) = delete;

    /// Creates the directory if needed and recovers whatever a previous
    /// incarnation committed, moving it into `*recovered` when given.
    /// Idempotent: reopening a healthy store is a no-op beyond re-reading
    /// it. The next commit writes an image.
    RecoveryReport open(RecoveredState* recovered = nullptr);

    /// Durably commits the caller's state (with a caller-defined `meta`,
    /// e.g. the sync round) — all-or-nothing across process death. The
    /// frame carries `state.image()` on the first commit after open() and
    /// `state.delta()` otherwise; a commit that folds also writes
    /// `state.image()` into the checkpoint. One writer: every delta between
    /// two open()s must come from the state the previous commit persisted.
    /// Throws IoError if the underlying filesystem fails; the commit then
    /// did not happen and the store refuses further commits until reopened.
    /// Throws UsageError if called before open() or after poisoning.
    void commit(const CommitSource& state, std::uint64_t meta = 0);

    /// meta passed to the latest commit (or of the recovered state).
    std::uint64_t latestMeta() const { return latestMeta_; }
    /// Highest LSN on disk or committed (0 if none; LSNs start at 1): the
    /// next commit takes the one after it.
    std::uint64_t latestLsn() const { return lastLsn_; }

    bool isPoisoned() const { return poisoned_; }
    const RecoveryReport& lastRecovery() const { return lastRecovery_; }

    /// Paths, for tests and tools.
    std::string walPath() const;
    std::string checkpointPath(std::uint64_t lsn) const;

private:
    void appendFrame(std::uint8_t kind, ByteView payload, std::uint64_t lsn,
                     std::uint64_t meta);
    void writeCheckpoint(ByteView image);
    /// Parses one checkpoint file; returns false (not throws) on any
    /// corruption — recovery falls back to older checkpoints.
    bool tryLoadCheckpoint(const std::string& file, std::uint64_t& seqOut,
                           std::uint64_t& metaOut, Bytes& payloadOut);

    vfs::Vfs& fs_;
    std::string dir_;
    StoreOptions options_;
    obs::Registry* registry_;
    obs::FlightRecorder* recorder_ = nullptr;

    bool open_ = false;
    bool poisoned_ = false;
    bool imageDue_ = true;                 ///< no commit since open()
    std::uint64_t latestMeta_ = 0;
    std::uint64_t lastLsn_ = 0;            ///< highest LSN on disk or committed
    std::uint32_t commitsSinceCheckpoint_ = 0;
    RecoveryReport lastRecovery_;

    // rc_store_* instruments (cached references; see docs/OBSERVABILITY.md).
    obs::Counter* commitsTotal_ = nullptr;
    obs::Counter* appendsTotal_ = nullptr;
    obs::Counter* walBytesTotal_ = nullptr;
    obs::Counter* checkpointsTotal_ = nullptr;
    obs::Counter* checkpointBytesTotal_ = nullptr;
    obs::Counter* recoveriesTotal_ = nullptr;
    obs::Counter* tornBytesTotal_ = nullptr;
    obs::Counter* discardedRecordsTotal_ = nullptr;
    obs::Histogram* commitSeconds_ = nullptr;
    obs::Histogram* recoverySeconds_ = nullptr;
};

}  // namespace rpkic::rp
