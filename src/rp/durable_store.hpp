// Durable, crash-consistent state store for the relying party.
//
// The paper's security argument (§5) assumes each relying party carries a
// trustworthy local history — hash-chained manifests, serial numbers,
// consent state — forward across runs. A cache that is lost or half-written
// after a crash is exactly the "mask a unilateral revocation" failure the
// cache_io header warns about. This store makes the RP state survive being
// killed at any instruction. It keeps one file, a write-ahead log that is
// always one image frame followed by LSN-consecutive delta frames:
//
//  * An image commit (the first commit after open(), and any commit that
//    finds `checkpointEvery` frames already in the WAL) writes one image
//    frame to wal.tmp, fsyncs it and renames it over wal.log. The rename
//    is the commit point, and it drops every older frame.
//  * Every other commit appends the round's delta frame to wal.log and
//    fsyncs it. The fsync is the commit point.
//  * Before a commit point, recovery sees the previous committed state;
//    after it, this one (or a later one). There is no instruction at which
//    recovery can observe anything else.
//  * open() reads wal.log and writes nothing. Frame 0 is the image; the
//    recovered chain ends at the first frame that is torn, corrupt or out
//    of chain, and the report says how much was dropped. No repair is
//    needed: the next commit is an image commit, which replaces the whole
//    file, so nothing is ever appended after garbage.
//
// The store never holds the state: commit() asks its caller for the image
// or the delta only when it writes one, and open() hands what it recovered
// to the caller to compose. The frame format is documented in
// docs/DURABILITY.md. All I/O goes through vfs::Vfs, so the exhaustive
// crash-point sweep (sim/crash_sweep.hpp) can enumerate every mutating
// operation as a crash site against MemVfs and prove the pre-or-post
// property above.
//
// Failure semantics: an IoError thrown from commit() means "the commit did
// not happen" — but the WAL tail may now hold a partial frame, so the store
// poisons itself and refuses further commits until it is reopened (the
// first commit after the reopen replaces the file).
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
    /// Start a fresh WAL with an image commit once this many frames are in
    /// it, so the WAL never holds more. At least 1; DurableStore's
    /// constructor throws UsageError otherwise.
    std::uint32_t checkpointEvery = 8;
    /// Instance label on the rc_store_* metric families.
    std::string name = "rp";
};

/// What open() found in the WAL and what it had to throw away. `recovered`
/// is false when no image survived (a pristine directory, or a WAL whose
/// first frame is torn or corrupt).
struct RecoveryReport {
    bool recovered = false;                ///< an image (and its deltas) was found
    std::uint64_t walRecordsReplayed = 0;  ///< frames in the recovered chain
    std::uint64_t tornBytesDiscarded = 0;  ///< WAL bytes after the chain
    /// Whole frames that failed their checksum or did not extend the chain
    /// (0 or 1: recovery stops at the first).
    std::uint64_t corruptRecordsDiscarded = 0;

    /// One-line human summary for logs and soak reports.
    std::string summary() const;
};

/// The committed state open() recovered, for the caller to compose: the
/// WAL's image and the deltas written against it, oldest first. Empty
/// (lsn 0) when nothing was recovered.
struct RecoveredState {
    Bytes image;
    std::vector<Bytes> deltas;
    std::uint64_t meta = 0;  ///< meta of the newest recovered frame
    std::uint64_t lsn = 0;   ///< its LSN
    bool operator==(const RecoveredState&) const = default;
};

/// One commit's bytes, built only when the store writes them: `image` for
/// an image commit, `delta` (the changes since the previous commit) for
/// every other one. Exactly one of them is called per commit.
struct CommitSource {
    std::function<Bytes()> image;
    std::function<Bytes()> delta;
};

/// A one-file write-ahead log over a Vfs. Single-threaded, like the
/// RelyingParty it persists. Layout inside `dir`:
///
///   wal.log   length+SHA-256-framed frames: one image, then deltas
///   wal.tmp   an image commit in flight (never read by recovery)
class DurableStore {
public:
    /// Does not touch the filesystem; call open() before commit().
    /// `registry` nullptr means obs::Registry::global(). Throws UsageError
    /// if `options.checkpointEvery` is 0.
    DurableStore(vfs::Vfs& fs, std::string dir, StoreOptions options = {},
                 obs::Registry* registry = nullptr);

    /// Routes future commits into `recorder` as StoreCommit flight events
    /// (component = "store/<name>", detail = lsn/meta/frame kind/bytes).
    /// nullptr detaches. Recovery never records — replayed commits were in
    /// the ring when first made.
    void attachRecorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

    DurableStore(const DurableStore&) = delete;
    DurableStore& operator=(const DurableStore&) = delete;

    /// Recovers whatever a previous incarnation committed, moving it into
    /// `*recovered` when given. Reads wal.log and writes nothing, so two
    /// open()s over the same bytes recover the same state. The next commit
    /// is an image commit. Throws IoError if wal.log exists but cannot be
    /// read; the store then stays closed.
    RecoveryReport open(RecoveredState* recovered = nullptr);

    /// Durably commits the caller's state (with a caller-defined `meta`,
    /// e.g. the sync round) — all-or-nothing across process death. An image
    /// commit writes `state.image()` into a fresh WAL, any other commit
    /// appends `state.delta()`. One writer: every delta between two open()s
    /// must come from the state the previous commit persisted. The directory
    /// is created on the first image commit if needed.
    /// Throws IoError if the underlying filesystem fails; the commit then
    /// did not happen and the store refuses further commits until reopened.
    /// Throws UsageError if called before open() or after poisoning.
    void commit(const CommitSource& state, std::uint64_t meta = 0);

    /// meta passed to the latest commit (or of the recovered state).
    std::uint64_t latestMeta() const { return latestMeta_; }
    /// LSN of the latest commit or of the recovered state (0 if none; LSNs
    /// start at 1): the next commit takes the one after it.
    std::uint64_t latestLsn() const { return lastLsn_; }

    bool isPoisoned() const { return poisoned_; }
    const RecoveryReport& lastRecovery() const { return lastRecovery_; }

    /// Path of wal.log, for tests and tools.
    std::string walPath() const;

private:
    vfs::Vfs& fs_;
    std::string dir_;
    StoreOptions options_;
    obs::Registry* registry_;
    obs::FlightRecorder* recorder_ = nullptr;

    bool open_ = false;
    bool poisoned_ = false;
    std::uint64_t latestMeta_ = 0;
    std::uint64_t lastLsn_ = 0;
    /// Frames this incarnation has in wal.log: 0 until the first commit
    /// after open(), which is an image commit.
    std::uint32_t walFrames_ = 0;
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
