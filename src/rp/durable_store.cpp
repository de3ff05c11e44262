#include "rp/durable_store.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/sha256.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

namespace {

// --- on-disk framing (see docs/DURABILITY.md) -------------------------------
//
// WAL frame:   u32 bodyLen | body | sha256(body)
//   body:      u8 kind | u64 lsn | u64 meta | payload
//   kind:      1 = image (the full state), 2 = delta (against lsn - 1)
// Checkpoint:  u32 magic | u32 version | u64 seq | u64 meta | u64 payloadLen
//              | payload (an image) | sha256(everything before the digest)
//
// All integers big-endian. The WAL scanner never throws on malformed input:
// a frame that does not parse and verify is, by definition, the torn tail.

constexpr std::uint32_t kCkptMagic = 0x52435331;  // "RCS1"
constexpr std::uint32_t kCkptVersion = 1;
constexpr std::uint8_t kFrameImage = 1;
constexpr std::uint8_t kFrameDelta = 2;
constexpr std::size_t kFrameHeaderLen = 1 + 8 + 8;       // kind + lsn + meta
constexpr std::size_t kDigestLen = 32;
constexpr std::uint32_t kMaxFrameBody = 1u << 30;        // 1 GiB sanity bound

const char* kWalFile = "wal.log";
const char* kCkptTmpFile = "ckpt.tmp";
const char* kWalTmpFile = "wal.tmp";
const char* kCkptPrefix = "ckpt-";
const char* kCkptSuffix = ".bin";

void putBe32(Bytes& out, std::uint32_t v) {
    for (int i = 3; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void putBe64(Bytes& out, std::uint64_t v) {
    for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t getBe32(const Bytes& b, std::size_t pos) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | b[pos + static_cast<std::size_t>(i)];
    return v;
}

std::uint64_t getBe64(const Bytes& b, std::size_t pos) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | b[pos + static_cast<std::size_t>(i)];
    return v;
}

/// ckpt-<16 hex digits>.bin -> lsn; nullopt for anything else.
std::optional<std::uint64_t> parseCheckpointName(const std::string& name) {
    const std::string prefix = kCkptPrefix;
    const std::string suffix = kCkptSuffix;
    if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        return std::nullopt;
    std::uint64_t v = 0;
    for (std::size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
        const char c = name[i];
        std::uint64_t digit = 0;
        if (c >= '0' && c <= '9')
            digit = static_cast<std::uint64_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<std::uint64_t>(c - 'a' + 10);
        else
            return std::nullopt;
        v = (v << 4) | digit;
    }
    return v;
}

/// One verified WAL frame; the payload stays in the scanned WAL buffer.
struct Frame {
    std::uint8_t kind;
    std::uint64_t lsn;
    std::uint64_t meta;
    std::size_t payloadAt;
    std::size_t payloadLen;
};

/// The longest prefix of `wal` made of whole frames that verify; stops at
/// the first torn or checksum-failed one, reported in `report`.
std::vector<Frame> scanFrames(const Bytes& wal, std::size_t& validEnd, RecoveryReport& report) {
    std::vector<Frame> frames;
    std::size_t pos = 0;
    while (pos < wal.size()) {
        const std::size_t remaining = wal.size() - pos;
        if (remaining < 4) break;
        const std::uint32_t bodyLen = getBe32(wal, pos);
        if (bodyLen < kFrameHeaderLen || bodyLen > kMaxFrameBody ||
            remaining < 4 + static_cast<std::size_t>(bodyLen) + kDigestLen) {
            break;  // torn tail (or garbage length — same thing)
        }
        const std::size_t bodyAt = pos + 4;
        const Digest expect = sha256(ByteView(wal.data() + bodyAt, bodyLen));
        const std::size_t digestAt = bodyAt + bodyLen;
        const bool checksumOk = std::equal(expect.bytes.begin(), expect.bytes.end(),
                                           wal.begin() + static_cast<std::ptrdiff_t>(digestAt));
        const std::uint8_t kind = wal[bodyAt];
        if (!checksumOk || (kind != kFrameImage && kind != kFrameDelta)) {
            // A frame-shaped region that fails verification: count it as a
            // corrupt record and stop — everything after it is untrusted.
            ++report.corruptRecordsDiscarded;
            break;
        }
        frames.push_back({kind, getBe64(wal, bodyAt + 1), getBe64(wal, bodyAt + 9),
                          bodyAt + kFrameHeaderLen, bodyLen - kFrameHeaderLen});
        pos = digestAt + kDigestLen;
    }
    validEnd = pos;
    report.tornBytesDiscarded += wal.size() - pos;
    return frames;
}

std::string checkpointName(std::uint64_t lsn) {
    static const char* hex = "0123456789abcdef";
    std::string digits(16, '0');
    for (int i = 15; i >= 0; --i) {
        digits[static_cast<std::size_t>(i)] = hex[lsn & 0xf];
        lsn >>= 4;
    }
    return std::string(kCkptPrefix) + digits + kCkptSuffix;
}

}  // namespace

std::string RecoveryReport::summary() const {
    if (!recovered) {
        std::string s = "no prior state";
        if (tornBytesDiscarded > 0 || corruptCheckpointsDiscarded > 0 ||
            walRecordsOrphaned > 0) {
            s += " (discarded " + std::to_string(tornBytesDiscarded) + " torn bytes, " +
                 std::to_string(corruptCheckpointsDiscarded) + " corrupt checkpoints, " +
                 std::to_string(walRecordsOrphaned) + " deltas without their image)";
        }
        return s;
    }
    std::string s = "recovered";
    if (usedCheckpoint) s += " checkpoint seq=" + std::to_string(checkpointSeq);
    s += " + " + std::to_string(walRecordsReplayed) + " wal records";
    if (walRecordsSkipped > 0) s += " (" + std::to_string(walRecordsSkipped) + " superseded)";
    if (walRecordsOrphaned > 0) {
        s += " (" + std::to_string(walRecordsOrphaned) + " deltas without their image)";
    }
    if (tornBytesDiscarded > 0 || corruptRecordsDiscarded > 0 ||
        corruptCheckpointsDiscarded > 0) {
        s += "; discarded " + std::to_string(tornBytesDiscarded) + " torn bytes, " +
             std::to_string(corruptRecordsDiscarded) + " corrupt records, " +
             std::to_string(corruptCheckpointsDiscarded) + " corrupt checkpoints";
    }
    if (repaired) s += "; repaired";
    return s;
}

DurableStore::DurableStore(vfs::Vfs& fs, std::string dir, StoreOptions options,
                           obs::Registry* registry)
    : fs_(fs),
      dir_(std::move(dir)),
      options_(std::move(options)),
      registry_(registry != nullptr ? registry : &obs::Registry::global()) {
    const obs::Labels labels = {{"store", options_.name}};
    commitsTotal_ = &registry_->counter("rc_store_commits_total",
                                        "Durable commits acknowledged", labels);
    appendsTotal_ = &registry_->counter("rc_store_wal_appends_total",
                                        "WAL frames appended", labels);
    walBytesTotal_ = &registry_->counter(
        "rc_store_wal_bytes_total", "Bytes written to the WAL: frames and repair rewrites",
        labels);
    checkpointsTotal_ = &registry_->counter(
        "rc_store_checkpoints_total", "Checkpoints written (write-temp/sync/rename)", labels);
    checkpointBytesTotal_ = &registry_->counter("rc_store_checkpoint_bytes_total",
                                                "Bytes written to checkpoint files", labels);
    recoveriesTotal_ =
        &registry_->counter("rc_store_recoveries_total", "Successful open()/recovery passes",
                            labels);
    tornBytesTotal_ = &registry_->counter(
        "rc_store_torn_bytes_total", "WAL tail bytes discarded during recovery", labels);
    discardedRecordsTotal_ = &registry_->counter(
        "rc_store_discarded_records_total",
        "Checksum-failed WAL frames and checkpoints discarded during recovery", labels);
    commitSeconds_ = &registry_->histogram("rc_store_commit_seconds",
                                           "Wall time of the durable commit path", labels);
    recoverySeconds_ = &registry_->histogram("rc_store_recovery_seconds",
                                             "Wall time of open()/recovery", labels);
}

std::string DurableStore::walPath() const { return vfs::joinPath(dir_, kWalFile); }

std::string DurableStore::checkpointPath(std::uint64_t lsn) const {
    return vfs::joinPath(dir_, checkpointName(lsn));
}

RecoveryReport DurableStore::open(RecoveredState* recovered) {
    const obs::Scope scope(recoverySeconds_);
    open_ = false;
    poisoned_ = false;
    imageDue_ = true;
    latestMeta_ = 0;
    lastLsn_ = 0;
    commitsSinceCheckpoint_ = 0;

    RecoveryReport report;
    fs_.makeDir(dir_);

    // Newest checkpoint that passes its checksum is the base image; corrupt
    // ones are skipped (and removed during repair) so a bit-flipped file
    // costs the rounds since the previous image, never a crash loop.
    std::vector<std::pair<std::uint64_t, std::string>> checkpoints;
    for (const auto& name : fs_.listDir(dir_)) {
        if (const auto lsn = parseCheckpointName(name)) checkpoints.emplace_back(*lsn, name);
    }
    std::sort(checkpoints.begin(), checkpoints.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<std::string> corruptCheckpoints;
    Bytes checkpointImage;
    for (const auto& [lsn, name] : checkpoints) {
        std::uint64_t seq = 0;
        std::uint64_t meta = 0;
        if (tryLoadCheckpoint(vfs::joinPath(dir_, name), seq, meta, checkpointImage) &&
            seq == lsn) {
            latestMeta_ = meta;
            lastLsn_ = seq;
            report.recovered = true;
            report.usedCheckpoint = true;
            report.checkpointSeq = seq;
            break;
        }
        ++report.corruptCheckpointsDiscarded;
        corruptCheckpoints.push_back(name);
    }

    // The WAL's valid frames extend the chain: a newer image frame replaces
    // the base, a delta at the next LSN extends it, anything at or below
    // the chain's LSN is superseded, and a delta past a gap (or with no
    // image at all) has lost the image it was written against.
    Bytes wal;
    if (fs_.exists(walPath())) {
        try {
            wal = fs_.readFile(walPath());
        } catch (const vfs::IoError&) {
            // Vanished between exists() and read: nothing to replay.
        }
    }
    std::size_t validEnd = 0;
    const std::vector<Frame> frames = scanFrames(wal, validEnd, report);
    std::optional<std::size_t> imageFrame;  // index into frames; else the checkpoint
    std::vector<std::size_t> deltaFrames;
    for (std::size_t i = 0; i < frames.size(); ++i) {
        const Frame& f = frames[i];
        const std::uint64_t chainEnd = report.recovered ? lastLsn_ : 0;
        if (f.kind == kFrameImage && f.lsn > chainEnd) {
            imageFrame = i;
            deltaFrames.clear();
            report.recovered = true;
        } else if (f.kind == kFrameDelta && report.recovered && f.lsn == chainEnd + 1) {
            deltaFrames.push_back(i);
        } else {
            if (f.lsn > chainEnd) ++report.walRecordsOrphaned;
            continue;
        }
        lastLsn_ = f.lsn;
        latestMeta_ = f.meta;
    }
    report.walRecordsReplayed = deltaFrames.size() + (imageFrame.has_value() ? 1 : 0);
    report.walRecordsSkipped =
        frames.size() - report.walRecordsReplayed - report.walRecordsOrphaned;
    if (recovered != nullptr) {
        *recovered = {};
        if (report.recovered) {
            // Only the chain's payloads are copied out of the WAL buffer.
            const auto payload = [&](std::size_t i) {
                const auto at = wal.begin() + static_cast<std::ptrdiff_t>(frames[i].payloadAt);
                return Bytes(at, at + static_cast<std::ptrdiff_t>(frames[i].payloadLen));
            };
            recovered->image =
                imageFrame.has_value() ? payload(*imageFrame) : std::move(checkpointImage);
            for (const std::size_t i : deltaFrames) recovered->deltas.push_back(payload(i));
            recovered->meta = latestMeta_;
            recovered->lsn = lastLsn_;
        }
    }
    // New frames must never reuse an LSN still on disk.
    for (const Frame& f : frames) lastLsn_ = std::max(lastLsn_, f.lsn);
    // Frames already pending in the WAL count toward the fold cadence, so
    // a restart-heavy run cannot grow the WAL without bound by resetting
    // the counter on every reopen.
    commitsSinceCheckpoint_ = static_cast<std::uint32_t>(
        std::min<std::size_t>(frames.size(), std::numeric_limits<std::uint32_t>::max()));

    // Repair: never leave garbage where the next append would land, and
    // never leave a corrupt checkpoint that recovery would retry forever.
    if (!corruptCheckpoints.empty()) {
        for (const auto& name : corruptCheckpoints) {
            try {
                fs_.removeFile(vfs::joinPath(dir_, name));
            } catch (const vfs::IoError&) {
                // Best effort: a corrupt checkpoint that refuses to die is
                // skipped by every future recovery anyway.
            }
        }
        report.repaired = true;
    }
    if (validEnd < wal.size()) {
        // write-temp / fsync / rename: until the rename the old WAL (valid
        // prefix and garbage) stays, and recovery reads the same frames.
        const std::string tmp = vfs::joinPath(dir_, kWalTmpFile);
        fs_.writeFile(tmp, ByteView(wal.data(), validEnd));
        fs_.sync(tmp);
        fs_.renameFile(tmp, walPath());
        walBytesTotal_->inc(validEnd);
        report.repaired = true;
    }
    // A leftover temp file is an aborted checkpoint or repair; recovery
    // never reads it and the next one overwrites it, so removal is
    // best-effort.
    for (const char* tmp : {kCkptTmpFile, kWalTmpFile}) {
        if (fs_.exists(vfs::joinPath(dir_, tmp))) {
            try {
                fs_.removeFile(vfs::joinPath(dir_, tmp));
            } catch (const vfs::IoError&) {
            }
        }
    }

    open_ = true;
    lastRecovery_ = report;
    recoveriesTotal_->inc();
    tornBytesTotal_->inc(report.tornBytesDiscarded);
    discardedRecordsTotal_->inc(report.corruptRecordsDiscarded +
                                report.corruptCheckpointsDiscarded);
    return report;
}

bool DurableStore::tryLoadCheckpoint(const std::string& file, std::uint64_t& seqOut,
                                     std::uint64_t& metaOut, Bytes& payloadOut) {
    Bytes data;
    try {
        data = fs_.readFile(file);
    } catch (const vfs::IoError&) {
        return false;
    }
    constexpr std::size_t kFixed = 4 + 4 + 8 + 8 + 8;  // magic..payloadLen
    if (data.size() < kFixed + kDigestLen) return false;
    if (getBe32(data, 0) != kCkptMagic) return false;
    if (getBe32(data, 4) != kCkptVersion) return false;
    const std::uint64_t payloadLen = getBe64(data, 24);
    if (payloadLen != data.size() - kFixed - kDigestLen) return false;
    const std::size_t digestAt = data.size() - kDigestLen;
    const Digest expect = sha256(ByteView(data.data(), digestAt));
    if (!std::equal(expect.bytes.begin(), expect.bytes.end(), data.begin() +
                        static_cast<std::ptrdiff_t>(digestAt))) {
        return false;
    }
    seqOut = getBe64(data, 8);
    metaOut = getBe64(data, 16);
    payloadOut.assign(data.begin() + kFixed, data.begin() + static_cast<std::ptrdiff_t>(digestAt));
    return true;
}

void DurableStore::commit(const CommitSource& state, std::uint64_t meta) {
    if (!open_) throw UsageError("DurableStore::commit before open()");
    if (poisoned_) {
        throw UsageError("DurableStore::commit on a poisoned store; reopen to repair");
    }
    const obs::Scope scope(commitSeconds_);
    const std::uint64_t lsn = lastLsn_ + 1;
    const bool image = imageDue_;
    Bytes payload;
    try {
        payload = image ? state.image() : state.delta();
        appendFrame(image ? kFrameImage : kFrameDelta, payload, lsn, meta);
        fs_.sync(walPath());  // <- the commit point
    } catch (const vfs::IoError&) {
        // The WAL tail may now hold a partial frame; appending after it
        // would put committed records behind garbage. Refuse until a
        // reopen repairs the tail.
        poisoned_ = true;
        throw;
    }
    lastLsn_ = lsn;
    latestMeta_ = meta;
    imageDue_ = false;
    if (recorder_ != nullptr || obs::FlightRecorder::global().enabled()) {
        obs::flightRecord(recorder_, obs::FlightKind::StoreCommit,
                          "store/" + options_.name,
                          "lsn=" + std::to_string(lsn) + " meta=" + std::to_string(meta) +
                              (image ? " frame=image" : " frame=delta") +
                              " bytes=" + std::to_string(payload.size()));
    }
    commitsTotal_->inc();
    ++commitsSinceCheckpoint_;
    if (options_.checkpointEvery != 0 && commitsSinceCheckpoint_ >= options_.checkpointEvery) {
        if (!image) payload = state.image();  // the frame held a delta
        try {
            writeCheckpoint(payload);
        } catch (const vfs::IoError&) {
            // The temp file or WAL may be half-written; same discipline as
            // a failed append. Reopening repairs (the rename either
            // happened or did not, so the committed state is intact).
            poisoned_ = true;
            throw;
        }
    }
}

void DurableStore::appendFrame(std::uint8_t kind, ByteView payload, std::uint64_t lsn,
                               std::uint64_t meta) {
    RC_CHECK(payload.size() <= kMaxFrameBody - kFrameHeaderLen,
             "durable-store payload exceeds the 1 GiB frame bound");
    const std::size_t bodyLen = kFrameHeaderLen + payload.size();
    Bytes frame;
    frame.reserve(4 + bodyLen + kDigestLen);
    putBe32(frame, static_cast<std::uint32_t>(bodyLen));
    frame.push_back(kind);
    putBe64(frame, lsn);
    putBe64(frame, meta);
    frame.insert(frame.end(), payload.begin(), payload.end());
    const Digest digest = sha256(ByteView(frame.data() + 4, bodyLen));
    frame.insert(frame.end(), digest.bytes.begin(), digest.bytes.end());
    fs_.appendFile(walPath(), ByteView(frame.data(), frame.size()));
    appendsTotal_->inc();
    walBytesTotal_->inc(frame.size());
}

void DurableStore::writeCheckpoint(ByteView image) {
    Bytes data;
    data.reserve(4 + 4 + 8 + 8 + 8 + image.size() + kDigestLen);
    putBe32(data, kCkptMagic);
    putBe32(data, kCkptVersion);
    putBe64(data, lastLsn_);
    putBe64(data, latestMeta_);
    putBe64(data, image.size());
    data.insert(data.end(), image.begin(), image.end());
    const Digest digest = sha256(ByteView(data.data(), data.size()));
    data.insert(data.end(), digest.bytes.begin(), digest.bytes.end());

    // write-temp / fsync / rename: the destination name only ever refers
    // to a complete, durable checkpoint.
    const std::string tmp = vfs::joinPath(dir_, kCkptTmpFile);
    fs_.writeFile(tmp, ByteView(data.data(), data.size()));
    fs_.sync(tmp);
    fs_.renameFile(tmp, checkpointPath(lastLsn_));
    checkpointBytesTotal_->inc(data.size());

    // The WAL's records are all folded into the checkpoint now; reset it.
    // A crash between the rename and this point replays them as skipped
    // (lsn <= checkpoint seq) — harmless.
    fs_.writeFile(walPath(), ByteView());
    fs_.sync(walPath());

    const std::uint64_t keep = lastLsn_;
    commitsSinceCheckpoint_ = 0;
    checkpointsTotal_->inc();

    // Best-effort cleanup of superseded checkpoints: a failure here loses
    // nothing (recovery always prefers the newest valid checkpoint).
    for (const auto& name : fs_.listDir(dir_)) {
        const auto lsn = parseCheckpointName(name);
        if (lsn.has_value() && *lsn < keep) {
            try {
                fs_.removeFile(vfs::joinPath(dir_, name));
            } catch (const vfs::IoError&) {
            }
        }
    }
}

}  // namespace rpkic::rp
