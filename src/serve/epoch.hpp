// The epoch store: the bridge between the RP sync pipeline and the
// serving plane (ROADMAP item 1; deployment shape per ByzRP, CCS 2024).
//
// Every committed sync round becomes an immutable *epoch*: a serial
// number, a shared handle on the round's RpkiState, and two canonical
// RTR wire payloads — the full snapshot (announce PDUs for every tuple)
// and the delta from the previous epoch (announces then withdraws,
// computed via detector::tupleDelta). Payloads are rendered once at
// publish time in the states' canonical sorted order, so they are
// byte-identical per seed at every --threads count, the same property
// every other consensus-visible artifact in the tree carries.
//
// Serial numbers are RFC 1982 serial-space values: they increment by one
// per epoch and wrap at 2^32; comparisons must go through serialLess().
// The store keeps a bounded ring of recent epochs; a client whose serial
// fell off the ring gets a Cache Reset (appendDeltaReply returns nullopt)
// and must re-fetch the full snapshot.
//
// Thread model: publish() is called from the sync thread, readers (the
// RTR server loop, tests, the load harness) from any thread; a mutex
// guards the ring and readers hold shared_ptr copies of immutable
// epochs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "detector/state.hpp"
#include "obs/metrics.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rpkic::serve {

// ---------------------------------------------------------------------------
// RTR wire vocabulary (RFC 8210, protocol version 1).

inline constexpr std::uint8_t kRtrVersion = 1;
inline constexpr std::size_t kCacheResponseBytes = 8;
inline constexpr std::size_t kEndOfDataBytes = 24;

enum class PduType : std::uint8_t {
    SerialNotify = 0,
    SerialQuery = 1,
    ResetQuery = 2,
    CacheResponse = 3,
    Ipv4Prefix = 4,
    Ipv6Prefix = 6,
    EndOfData = 7,
    CacheReset = 8,
    ErrorReport = 10,
};

/// RFC 8210 §12 error codes (the subset the cache side emits).
enum class RtrError : std::uint16_t {
    CorruptData = 0,
    InternalError = 1,
    NoDataAvailable = 2,
    InvalidRequest = 3,
    UnsupportedVersion = 4,
    UnsupportedPduType = 5,
};

/// True iff serial `a` precedes `b` in RFC 1982 serial space (wraps at
/// 2^32; antisymmetric except for the undefined 2^31 antipode).
bool serialLess(std::uint32_t a, std::uint32_t b);

/// The fixed 8-byte PDU header. `session` doubles as the error code for
/// ErrorReport and is zero for ResetQuery/CacheReset.
struct PduHeader {
    std::uint8_t version = 0;
    std::uint8_t type = 0;
    std::uint16_t session = 0;
    std::uint32_t length = 0;  ///< total PDU length including the header
};

/// Reads the header from the front of `bytes` without consuming it.
/// Returns false when fewer than 8 bytes are buffered.
bool peekPduHeader(std::string_view bytes, PduHeader* header);

// Canonical encoders, appending network-order bytes to `out`.
void appendSerialNotify(std::string& out, std::uint16_t session, std::uint32_t serial);
void appendSerialQuery(std::string& out, std::uint16_t session, std::uint32_t serial);
void appendResetQuery(std::string& out);
void appendCacheResponse(std::string& out, std::uint16_t session);
void appendPrefixPdu(std::string& out, const RoaTuple& tuple, bool announce);
void appendEndOfData(std::string& out, std::uint16_t session, std::uint32_t serial,
                     std::uint32_t refreshSeconds, std::uint32_t retrySeconds,
                     std::uint32_t expireSeconds);
void appendCacheReset(std::string& out);
void appendErrorReport(std::string& out, RtrError code, std::string_view erroneousPdu,
                       std::string_view text);

// ---------------------------------------------------------------------------

/// One published sync round, immutable after publish().
struct Epoch {
    std::uint32_t serial = 0;
    std::uint64_t round = 0;  ///< source sync round (for dumps/alarms)
    std::shared_ptr<const RpkiState> state;
    std::string snapshotPdus;  ///< announce PDU per tuple, state order
    std::string deltaPdus;     ///< announces then withdraws vs the previous epoch
    std::uint64_t announced = 0;
    std::uint64_t withdrawn = 0;
};

class EpochStore {
public:
    struct Options {
        std::size_t capacity = 64;      ///< epochs kept before eviction
        std::uint32_t firstSerial = 0;  ///< serial of the first publish (wrap tests)
        std::uint16_t sessionId = 1;    ///< RTR session id, fixed per store lifetime
        obs::Registry* registry = nullptr;  ///< rc_rtr_* instruments (null = unmetered)
    };

    EpochStore() : EpochStore(Options()) {}
    explicit EpochStore(Options options);
    EpochStore(const EpochStore&) = delete;
    EpochStore& operator=(const EpochStore&) = delete;

    /// Publishes `state` as the next epoch and returns it. The first
    /// publish gets Options::firstSerial; each later one the successor
    /// serial (mod 2^32). The delta is rendered against the previous
    /// epoch's state (the first epoch has an empty delta and is only
    /// reachable via snapshot).
    std::shared_ptr<const Epoch> publish(std::uint64_t round,
                                         std::shared_ptr<const RpkiState> state);

    std::uint16_t sessionId() const { return options_.sessionId; }

    /// Latest epoch, or nullptr before the first publish.
    std::shared_ptr<const Epoch> current() const;

    /// What appendDeltaReply appended.
    struct DeltaReply {
        std::uint32_t serial = 0;      ///< the epoch the payload reaches
        std::size_t payloadBytes = 0;  ///< prefix PDU bytes, headers excluded
    };

    /// Appends the body of the reply to a Serial Query from `serial`: a
    /// Cache Response, then the delta payloads moving the client to the
    /// current epoch (none when already current). Under one lock, so the
    /// returned serial — the one the caller's End of Data must carry —
    /// is the epoch the payload reaches even while publish() runs on
    /// another thread. Reserves `out` once for the whole reply, End of
    /// Data included. Returns nullopt and appends nothing when `serial`
    /// is unknown, evicted, or ahead of the store: the caller must answer
    /// with a Cache Reset.
    std::optional<DeltaReply> appendDeltaReply(std::uint32_t serial, std::string& out) const;

    std::size_t epochsHeld() const;

private:
    Options options_;
    mutable rc::Mutex mutex_;
    std::deque<std::shared_ptr<const Epoch>> ring_ RC_GUARDED_BY(mutex_);
    bool published_ RC_GUARDED_BY(mutex_) = false;
    std::uint32_t nextSerial_ RC_GUARDED_BY(mutex_) = 0;

    obs::Counter* epochsPublished_ = nullptr;
    obs::Gauge* epochSerial_ = nullptr;
    obs::Gauge* epochTuples_ = nullptr;
};

/// Canonical one-line digest of an epoch for determinism dumps: fixed
/// field order, SHA-256 of both payloads. Byte-identical across thread
/// counts for the same seed/round sequence.
std::string epochDumpLine(std::uint64_t seed, const Epoch& epoch);

}  // namespace rpkic::serve
