// Durable, crash-consistent state store for the relying party.
//
// The paper's security argument (§5) assumes each relying party carries a
// trustworthy local history — hash-chained manifests, serial numbers,
// consent state — forward across runs. A cache that is lost or half-written
// after a crash is exactly the "mask a unilateral revocation" failure the
// cache_io header warns about. This store makes the RP state survive being
// killed at any instruction:
//
//  * commit(payload, meta) appends one length+SHA-256-framed record to a
//    write-ahead log and fsyncs it. The fsync is the commit point: after it
//    returns, recovery is guaranteed to see this payload (or a later one);
//    before it returns, recovery sees the previous committed payload. There
//    is no instruction at which recovery can observe anything else.
//  * Every `checkpointEvery` commits the store folds the latest payload
//    into a checkpoint file via the classic write-temp/fsync/rename recipe,
//    then resets the WAL. The rename is atomic, so a crash anywhere in the
//    fold leaves either the old (checkpoint, WAL) pair or the new one.
//  * open() recovers: load the newest checkpoint that passes its checksum,
//    scan the WAL and replay the longest valid prefix of frames, discard
//    the torn tail, and report exactly what was kept and what was dropped.
//    If anything was discarded, the store re-checkpoints before accepting
//    new commits so fresh records are never appended after garbage.
//
// Frame and file formats are documented in docs/DURABILITY.md. All I/O
// goes through vfs::Vfs, so the exhaustive crash-point sweep
// (sim/crash_sweep.hpp) can enumerate every mutating operation as a crash
// site against MemVfs and prove the pre-or-post property above.
//
// Failure semantics: an IoError thrown from commit()/checkpointNow() means
// "the commit did not happen" — but the WAL tail may now hold a partial
// frame, so the store poisons itself and refuses further commits until it
// is reopened (recovery repairs the tail). latest() stays readable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "util/bytes.hpp"
#include "util/vfs.hpp"

namespace rpkic::rp {

struct StoreOptions {
    /// Fold the WAL into a checkpoint after this many commits. 0 disables
    /// automatic checkpoints (checkpointNow() still works).
    std::uint32_t checkpointEvery = 8;
    /// Instance label on the rc_store_* metric families.
    std::string name = "rp";
};

/// What open() found on disk and what it had to throw away. `recovered`
/// is false for a pristine directory (nothing on disk at all).
struct RecoveryReport {
    bool recovered = false;              ///< some committed payload was found
    bool usedCheckpoint = false;         ///< a valid checkpoint was loaded
    std::uint64_t checkpointSeq = 0;     ///< LSN folded into that checkpoint
    std::uint64_t walRecordsReplayed = 0;    ///< valid WAL frames adopted
    std::uint64_t walRecordsSkipped = 0;     ///< valid frames <= checkpointSeq
    std::uint64_t tornBytesDiscarded = 0;    ///< WAL tail bytes dropped
    std::uint64_t corruptRecordsDiscarded = 0;      ///< checksum-failed frames
    std::uint64_t corruptCheckpointsDiscarded = 0;  ///< checksum-failed ckpts
    bool repaired = false;               ///< open() re-checkpointed to heal

    /// One-line human summary for logs and soak reports.
    std::string summary() const;
};

/// Write-ahead log + atomic checkpoints over a Vfs. Single-threaded, like
/// the RelyingParty it persists. Layout inside `dir`:
///
///   wal.log          length+SHA-256-framed commit records
///   ckpt-<lsn>.bin   checkpoint holding the payload committed at <lsn>
///   ckpt.tmp         in-flight checkpoint (never read by recovery)
class DurableStore {
public:
    /// Does not touch the filesystem; call open() before commit().
    /// `registry` nullptr means obs::Registry::global().
    DurableStore(vfs::Vfs& fs, std::string dir, StoreOptions options = {},
                 obs::Registry* registry = nullptr);

    /// Routes future commits into `recorder` as StoreCommit flight events
    /// (component = "store/<name>", detail = lsn/meta/bytes). nullptr
    /// detaches. Recovery never records — replayed commits were in the
    /// ring when first made.
    void attachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

    DurableStore(const DurableStore&) = delete;
    DurableStore& operator=(const DurableStore&) = delete;

    /// Creates the directory if needed and recovers whatever a previous
    /// incarnation committed. Idempotent: reopening a healthy store is a
    /// no-op beyond re-reading it.
    RecoveryReport open();

    /// Durably commits `payload` (with a caller-defined `meta`, e.g. the
    /// sync round) — all-or-nothing across process death. The store takes
    /// the buffer: once the frame is durable it becomes latest(), so the
    /// only copy made is the WAL frame itself. Throws IoError if the
    /// underlying filesystem fails; the commit then did not happen,
    /// latest() is unchanged, and the store refuses further commits until
    /// reopened. Throws UsageError if called before open() or after
    /// poisoning.
    void commit(Bytes payload, std::uint64_t meta = 0);

    /// Folds the latest committed payload into a checkpoint and resets the
    /// WAL. No-op if nothing has ever been committed.
    void checkpointNow();

    /// Latest committed payload, or nullopt if none. Valid after open().
    const std::optional<Bytes>& latest() const { return latest_; }
    /// meta passed to the commit that produced latest().
    std::uint64_t latestMeta() const { return latestMeta_; }
    /// LSN of the latest commit (0 if none; LSNs start at 1).
    std::uint64_t latestLsn() const { return lastLsn_; }

    bool isPoisoned() const { return poisoned_; }
    const RecoveryReport& lastRecovery() const { return lastRecovery_; }

    /// Paths, for tests and tools.
    std::string walPath() const;
    std::string checkpointPath(std::uint64_t lsn) const;

private:
    void appendFrame(ByteView payload, std::uint64_t lsn, std::uint64_t meta);
    void writeCheckpoint();
    /// Parses one checkpoint file; returns false (not throws) on any
    /// corruption — recovery falls back to older checkpoints.
    bool tryLoadCheckpoint(const std::string& file, std::uint64_t& seqOut,
                           std::uint64_t& metaOut, Bytes& payloadOut);
    void scanWal(std::uint64_t ckptSeq, RecoveryReport& report);

    vfs::Vfs& fs_;
    std::string dir_;
    StoreOptions options_;
    obs::Registry* registry_;
    obs::FlightRecorder* recorder_ = nullptr;

    bool open_ = false;
    bool poisoned_ = false;
    std::optional<Bytes> latest_;
    std::uint64_t latestMeta_ = 0;
    std::uint64_t lastLsn_ = 0;            ///< highest LSN ever committed
    std::uint64_t checkpointLsn_ = 0;      ///< LSN folded into the newest ckpt
    std::uint32_t commitsSinceCheckpoint_ = 0;
    RecoveryReport lastRecovery_;

    // rc_store_* instruments (cached references; see docs/OBSERVABILITY.md).
    obs::Counter* commitsTotal_ = nullptr;
    obs::Counter* appendsTotal_ = nullptr;
    obs::Counter* checkpointsTotal_ = nullptr;
    obs::Counter* recoveriesTotal_ = nullptr;
    obs::Counter* tornBytesTotal_ = nullptr;
    obs::Counter* discardedRecordsTotal_ = nullptr;
    obs::Histogram* commitSeconds_ = nullptr;
    obs::Histogram* recoverySeconds_ = nullptr;
};

}  // namespace rpkic::rp
