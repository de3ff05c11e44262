// Simulated message layer between fleet members and the aggregator.
//
// The fleet does not get a reliable broadcast for free: Stalloris-class
// adversaries sit on the network path, so the consensus layer must survive
// lost, delayed, corrupted, and partitioned vote exchanges. The bus is the
// injectable fault surface for that: a deterministic in-memory mailbox per
// participant with a schedule of LinkFaults, mirroring the FaultPlan idiom
// of rpki/chaos.hpp (fault active over an epoch window, keyed by endpoint).
//
// Determinism contract: sends are sequenced by the caller (the fleet loop
// sends in member order), each send is stamped with a monotone sequence
// number, and collect() returns deliverable messages sorted by
// (send epoch, sender, sequence). The same sends plus the same faults
// always produce the same delivery transcript.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace rpkic::fleet {

enum class LinkFaultKind : std::uint8_t {
    Lose = 0,       ///< message silently dropped
    Delay = 1,      ///< delivery postponed by `param` epochs
    Corrupt = 2,    ///< bit `param` (mod payload bits) flipped in flight
    Partition = 3,  ///< `param` is a member bitmask; the two sides cannot talk
};

/// One scheduled link fault, active for epochs [epoch, epoch + epochs).
/// `from`/`to` of kMatchAny match every endpoint (Partition ignores both
/// and uses the bitmask in `param`).
struct LinkFault {
    static constexpr std::uint32_t kMatchAny = 0xffffffffu;

    LinkFaultKind kind = LinkFaultKind::Lose;
    std::uint32_t from = kMatchAny;
    std::uint32_t to = kMatchAny;
    std::uint64_t epoch = 0;
    std::uint32_t epochs = 1;
    std::uint64_t param = 0;

    bool activeAt(std::uint64_t e) const { return e >= epoch && e - epoch < epochs; }
    bool matches(std::uint32_t f, std::uint32_t t, std::uint64_t e) const;
};

/// A message as the recipient sees it.
struct Envelope {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint64_t sentEpoch = 0;
    std::uint64_t deliverEpoch = 0;
    std::uint64_t seq = 0;  ///< bus-wide send sequence (delivery tiebreak)
    Bytes payload;
};

struct BusStats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t lost = 0;
    std::uint64_t delayed = 0;
    std::uint64_t corrupted = 0;
};

/// Deterministic mailbox fabric for `participants` endpoints (the fleet
/// convention: members 0..N-1, aggregator N).
class MessageBus {
public:
    explicit MessageBus(std::uint32_t participants) : participants_(participants) {}

    void addFault(LinkFault f) { faults_.push_back(std::move(f)); }
    const std::vector<LinkFault>& faults() const { return faults_; }

    /// One point-to-point send at `epoch`. Faults apply in declaration
    /// order: Partition and Lose drop, Corrupt mutates, Delay postpones.
    void send(std::uint32_t from, std::uint32_t to, std::uint64_t epoch, ByteView payload);

    /// Sends to every participant except `from`.
    void broadcast(std::uint32_t from, std::uint64_t epoch, ByteView payload);

    /// Drains every message deliverable to `to` at `epoch` (deliverEpoch
    /// <= epoch), sorted by (sentEpoch, from, seq). Messages delayed past
    /// `epoch` stay queued for a later collect.
    std::vector<Envelope> collect(std::uint32_t to, std::uint64_t epoch);

    const BusStats& stats() const { return stats_; }

private:
    std::uint32_t participants_;
    std::vector<LinkFault> faults_;
    std::vector<Envelope> queue_;
    std::uint64_t nextSeq_ = 0;
    BusStats stats_;
};

}  // namespace rpkic::fleet
