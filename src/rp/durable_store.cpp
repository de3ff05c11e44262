#include "rp/durable_store.hpp"

#include <algorithm>
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
//
// All integers big-endian. The WAL scanner never throws on malformed input:
// a frame that does not parse, verify and extend the chain ends recovery.

constexpr std::uint8_t kFrameImage = 1;
constexpr std::uint8_t kFrameDelta = 2;
constexpr std::size_t kFrameHeaderLen = 1 + 8 + 8;       // kind + lsn + meta
constexpr std::size_t kDigestLen = 32;
constexpr std::uint32_t kMaxFrameBody = 1u << 30;        // 1 GiB sanity bound

const char* kWalFile = "wal.log";
const char* kWalTmpFile = "wal.tmp";

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

/// One verified WAL frame; the payload stays in the scanned WAL buffer.
struct Frame {
    std::uint64_t lsn;
    std::uint64_t meta;
    std::size_t payloadAt;
    std::size_t payloadLen;
};

/// The recovered chain: the longest prefix of `wal` that is one image frame
/// followed by deltas at consecutive LSNs, every frame whole and verified.
/// What follows it is counted in `report`.
std::vector<Frame> scanChain(const Bytes& wal, RecoveryReport& report) {
    std::vector<Frame> chain;
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
        const std::uint64_t lsn = getBe64(wal, bodyAt + 1);
        const bool extendsChain = chain.empty()
                                      ? kind == kFrameImage
                                      : kind == kFrameDelta && lsn == chain.back().lsn + 1;
        if (!checksumOk || !extendsChain) {
            // A whole frame that fails verification or does not belong
            // after the previous one: everything from here is untrusted.
            ++report.corruptRecordsDiscarded;
            break;
        }
        chain.push_back({lsn, getBe64(wal, bodyAt + 9), bodyAt + kFrameHeaderLen,
                         bodyLen - kFrameHeaderLen});
        pos = digestAt + kDigestLen;
    }
    report.tornBytesDiscarded = wal.size() - pos;
    return chain;
}

Bytes encodeFrame(std::uint8_t kind, ByteView payload, std::uint64_t lsn, std::uint64_t meta) {
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
    return frame;
}

}  // namespace

std::string RecoveryReport::summary() const {
    std::string s = recovered ? "recovered " + std::to_string(walRecordsReplayed) + " wal records"
                              : "no prior state";
    if (tornBytesDiscarded > 0 || corruptRecordsDiscarded > 0) {
        s += "; discarded " + std::to_string(tornBytesDiscarded) + " torn bytes, " +
             std::to_string(corruptRecordsDiscarded) + " corrupt records";
    }
    return s;
}

DurableStore::DurableStore(vfs::Vfs& fs, std::string dir, StoreOptions options,
                           obs::Registry* registry)
    : fs_(fs),
      dir_(std::move(dir)),
      options_(std::move(options)),
      registry_(registry != nullptr ? registry : &obs::Registry::global()) {
    if (options_.checkpointEvery < 1) {
        throw UsageError("store checkpointEvery must be at least 1 (frames per WAL)");
    }
    const obs::Labels labels = {{"store", options_.name}};
    commitsTotal_ = &registry_->counter("rc_store_commits_total",
                                        "Durable commits acknowledged", labels);
    appendsTotal_ = &registry_->counter("rc_store_wal_appends_total",
                                        "Delta frames appended to the WAL", labels);
    walBytesTotal_ = &registry_->counter("rc_store_wal_bytes_total",
                                         "Bytes of the delta frames appended", labels);
    checkpointsTotal_ = &registry_->counter(
        "rc_store_checkpoints_total", "Image commits (a fresh WAL via write-temp/sync/rename)",
        labels);
    checkpointBytesTotal_ = &registry_->counter("rc_store_checkpoint_bytes_total",
                                                "Bytes of the image frames written", labels);
    recoveriesTotal_ =
        &registry_->counter("rc_store_recoveries_total", "Successful open()/recovery passes",
                            labels);
    tornBytesTotal_ = &registry_->counter(
        "rc_store_torn_bytes_total", "WAL bytes after the recovered chain, discarded", labels);
    discardedRecordsTotal_ = &registry_->counter(
        "rc_store_discarded_records_total",
        "Whole WAL frames discarded during recovery (checksum or chain failed)", labels);
    commitSeconds_ = &registry_->histogram("rc_store_commit_seconds",
                                           "Wall time of the durable commit path", labels);
    recoverySeconds_ = &registry_->histogram("rc_store_recovery_seconds",
                                             "Wall time of open()/recovery", labels);
}

std::string DurableStore::walPath() const { return vfs::joinPath(dir_, kWalFile); }

RecoveryReport DurableStore::open(RecoveredState* recovered) {
    const obs::Scope scope(recoverySeconds_);
    open_ = false;
    poisoned_ = false;
    latestMeta_ = 0;
    lastLsn_ = 0;
    walFrames_ = 0;

    RecoveryReport report;
    // An unreadable WAL is not an empty one: the IoError propagates, since
    // the next image commit would replace the history it could not read.
    const Bytes wal = fs_.exists(walPath()) ? fs_.readFile(walPath()) : Bytes{};
    const std::vector<Frame> chain = scanChain(wal, report);
    report.recovered = !chain.empty();
    report.walRecordsReplayed = chain.size();
    if (report.recovered) {
        lastLsn_ = chain.back().lsn;
        latestMeta_ = chain.back().meta;
    }
    if (recovered != nullptr) {
        *recovered = {};
        // Only the chain's payloads are copied out of the WAL buffer.
        const auto payload = [&](const Frame& f) {
            const auto at = wal.begin() + static_cast<std::ptrdiff_t>(f.payloadAt);
            return Bytes(at, at + static_cast<std::ptrdiff_t>(f.payloadLen));
        };
        if (report.recovered) recovered->image = payload(chain.front());
        for (std::size_t i = 1; i < chain.size(); ++i) recovered->deltas.push_back(payload(chain[i]));
        recovered->meta = latestMeta_;
        recovered->lsn = lastLsn_;
    }

    open_ = true;
    lastRecovery_ = report;
    recoveriesTotal_->inc();
    tornBytesTotal_->inc(report.tornBytesDiscarded);
    discardedRecordsTotal_->inc(report.corruptRecordsDiscarded);
    return report;
}

void DurableStore::commit(const CommitSource& state, std::uint64_t meta) {
    if (!open_) throw UsageError("DurableStore::commit before open()");
    if (poisoned_) {
        throw UsageError("DurableStore::commit on a poisoned store; reopen it first");
    }
    const obs::Scope scope(commitSeconds_);
    const std::uint64_t lsn = lastLsn_ + 1;
    const bool image = walFrames_ == 0 || walFrames_ >= options_.checkpointEvery;
    Bytes payload;
    try {
        payload = image ? state.image() : state.delta();
        const Bytes frame = encodeFrame(image ? kFrameImage : kFrameDelta,
                                        ByteView(payload.data(), payload.size()), lsn, meta);
        const ByteView bytes(frame.data(), frame.size());
        if (image) {
            // write-temp / fsync / rename: until the rename, recovery reads
            // the old WAL whole.
            const std::string tmp = vfs::joinPath(dir_, kWalTmpFile);
            fs_.makeDir(dir_);
            fs_.writeFile(tmp, bytes);
            fs_.sync(tmp);
            fs_.renameFile(tmp, walPath());  // <- the commit point
            checkpointsTotal_->inc();
            checkpointBytesTotal_->inc(frame.size());
        } else {
            fs_.appendFile(walPath(), bytes);
            fs_.sync(walPath());  // <- the commit point
            appendsTotal_->inc();
            walBytesTotal_->inc(frame.size());
        }
    } catch (const vfs::IoError&) {
        // The WAL tail may now hold a partial frame. Refuse until a reopen,
        // whose first commit replaces the file.
        poisoned_ = true;
        throw;
    }
    lastLsn_ = lsn;
    latestMeta_ = meta;
    walFrames_ = image ? 1 : walFrames_ + 1;
    if (recorder_ != nullptr || obs::FlightRecorder::global().enabled()) {
        obs::flightRecord(recorder_, obs::FlightKind::StoreCommit,
                          "store/" + options_.name,
                          "lsn=" + std::to_string(lsn) + " meta=" + std::to_string(meta) +
                              (image ? " frame=image" : " frame=delta") +
                              " bytes=" + std::to_string(payload.size()));
    }
    commitsTotal_->inc();
}

}  // namespace rpkic::rp
