#include "serve/epoch.hpp"

#include <utility>

#include "crypto/sha256.hpp"
#include "detector/diff.hpp"

namespace rpkic::serve {

namespace {

void appendU16(std::string& out, std::uint16_t v) {
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>(v & 0xff));
}

void appendU32(std::string& out, std::uint32_t v) {
    out.push_back(static_cast<char>((v >> 24) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>(v & 0xff));
}

void appendHeader(std::string& out, PduType type, std::uint16_t session,
                  std::uint32_t totalLength) {
    out.push_back(static_cast<char>(kRtrVersion));
    out.push_back(static_cast<char>(type));
    appendU16(out, session);
    appendU32(out, totalLength);
}

std::uint32_t readU32(std::string_view bytes, std::size_t at) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]));
}

}  // namespace

bool serialLess(std::uint32_t a, std::uint32_t b) {
    // RFC 1982 §3.2 with SERIAL_BITS = 32.
    return (a < b && b - a < 0x80000000u) || (a > b && a - b > 0x80000000u);
}

bool peekPduHeader(std::string_view bytes, PduHeader* header) {
    if (bytes.size() < 8) return false;
    header->version = static_cast<std::uint8_t>(bytes[0]);
    header->type = static_cast<std::uint8_t>(bytes[1]);
    header->session =
        static_cast<std::uint16_t>((static_cast<unsigned char>(bytes[2]) << 8) |
                                   static_cast<unsigned char>(bytes[3]));
    header->length = readU32(bytes, 4);
    return true;
}

void appendSerialNotify(std::string& out, std::uint16_t session, std::uint32_t serial) {
    appendHeader(out, PduType::SerialNotify, session, 12);
    appendU32(out, serial);
}

void appendSerialQuery(std::string& out, std::uint16_t session, std::uint32_t serial) {
    appendHeader(out, PduType::SerialQuery, session, 12);
    appendU32(out, serial);
}

void appendResetQuery(std::string& out) {
    appendHeader(out, PduType::ResetQuery, 0, 8);
}

void appendCacheResponse(std::string& out, std::uint16_t session) {
    appendHeader(out, PduType::CacheResponse, session, 8);
}

void appendPrefixPdu(std::string& out, const RoaTuple& tuple, bool announce) {
    const bool v4 = tuple.prefix.family == IpFamily::v4;
    appendHeader(out, v4 ? PduType::Ipv4Prefix : PduType::Ipv6Prefix, 0, v4 ? 20 : 32);
    out.push_back(static_cast<char>(announce ? 1 : 0));
    out.push_back(static_cast<char>(tuple.prefix.length));
    out.push_back(static_cast<char>(tuple.maxLength));
    out.push_back(static_cast<char>(0));
    if (v4) {
        appendU32(out, static_cast<std::uint32_t>(tuple.prefix.addr.toU64()));
    } else {
        appendU32(out, static_cast<std::uint32_t>(tuple.prefix.addr.hi >> 32));
        appendU32(out, static_cast<std::uint32_t>(tuple.prefix.addr.hi & 0xffffffffu));
        appendU32(out, static_cast<std::uint32_t>(tuple.prefix.addr.lo >> 32));
        appendU32(out, static_cast<std::uint32_t>(tuple.prefix.addr.lo & 0xffffffffu));
    }
    appendU32(out, tuple.asn);
}

void appendEndOfData(std::string& out, std::uint16_t session, std::uint32_t serial,
                     std::uint32_t refreshSeconds, std::uint32_t retrySeconds,
                     std::uint32_t expireSeconds) {
    appendHeader(out, PduType::EndOfData, session, 24);
    appendU32(out, serial);
    appendU32(out, refreshSeconds);
    appendU32(out, retrySeconds);
    appendU32(out, expireSeconds);
}

void appendCacheReset(std::string& out) {
    appendHeader(out, PduType::CacheReset, 0, 8);
}

void appendErrorReport(std::string& out, RtrError code, std::string_view erroneousPdu,
                       std::string_view text) {
    const std::uint32_t total =
        8 + 4 + static_cast<std::uint32_t>(erroneousPdu.size()) + 4 +
        static_cast<std::uint32_t>(text.size());
    appendHeader(out, PduType::ErrorReport, static_cast<std::uint16_t>(code), total);
    appendU32(out, static_cast<std::uint32_t>(erroneousPdu.size()));
    out.append(erroneousPdu);
    appendU32(out, static_cast<std::uint32_t>(text.size()));
    out.append(text);
}

// ---------------------------------------------------------------------------

EpochStore::EpochStore(Options options) : options_(options) {
    if (options_.capacity == 0) options_.capacity = 1;
    if (options_.registry != nullptr) {
        epochsPublished_ = &options_.registry->counter(
            "rc_rtr_epochs_published_total", "Sync rounds published as RTR epochs");
        epochSerial_ = &options_.registry->gauge("rc_rtr_epoch_serial",
                                                 "Serial number of the current epoch");
        epochTuples_ = &options_.registry->gauge("rc_rtr_epoch_tuples",
                                                 "VRP tuples in the current epoch");
    }
}

std::shared_ptr<const Epoch> EpochStore::publish(std::uint64_t round,
                                                 std::shared_ptr<const RpkiState> state) {
    auto epoch = std::make_shared<Epoch>();
    epoch->round = round;
    epoch->state = std::move(state);
    for (const RoaTuple& tuple : epoch->state->tuples()) {
        appendPrefixPdu(epoch->snapshotPdus, tuple, true);
    }

    rc::LockGuard lock(mutex_);
    if (!published_) {
        epoch->serial = options_.firstSerial;
        published_ = true;
    } else {
        epoch->serial = nextSerial_;
        const std::shared_ptr<const Epoch>& prev = ring_.back();
        const TupleDelta delta = tupleDelta(*prev->state, *epoch->state);
        epoch->announced = delta.announced.size();
        epoch->withdrawn = delta.withdrawn.size();
        for (const RoaTuple& tuple : delta.announced) {
            appendPrefixPdu(epoch->deltaPdus, tuple, true);
        }
        for (const RoaTuple& tuple : delta.withdrawn) {
            appendPrefixPdu(epoch->deltaPdus, tuple, false);
        }
    }
    nextSerial_ = epoch->serial + 1;  // unsigned wrap at 2^32 is the point
    ring_.push_back(epoch);
    while (ring_.size() > options_.capacity) ring_.pop_front();

    if (epochsPublished_ != nullptr) epochsPublished_->inc();
    if (epochSerial_ != nullptr) {
        epochSerial_->set(static_cast<std::int64_t>(epoch->serial));
    }
    if (epochTuples_ != nullptr) {
        epochTuples_->set(static_cast<std::int64_t>(epoch->state->size()));
    }
    return epoch;
}

std::shared_ptr<const Epoch> EpochStore::current() const {
    rc::LockGuard lock(mutex_);
    return ring_.empty() ? nullptr : ring_.back();
}

std::optional<EpochStore::DeltaReply> EpochStore::appendDeltaReply(std::uint32_t serial,
                                                                   std::string& out) const {
    rc::LockGuard lock(mutex_);
    if (ring_.empty()) return std::nullopt;
    const std::uint32_t currentSerial = ring_.back()->serial;
    if (serialLess(currentSerial, serial)) return std::nullopt;  // ahead of us
    // Distance walks serial space with wraparound; the ring holds
    // consecutive serials ending at currentSerial, so the client's epoch
    // is at index size-1-distance when it is still held.
    const std::uint32_t distance = currentSerial - serial;
    if (distance > ring_.size() - 1) return std::nullopt;  // evicted
    const std::size_t first = ring_.size() - distance;
    DeltaReply reply{currentSerial, 0};
    for (std::size_t i = first; i < ring_.size(); ++i) {
        reply.payloadBytes += ring_[i]->deltaPdus.size();
    }
    out.reserve(out.size() + kCacheResponseBytes + reply.payloadBytes + kEndOfDataBytes);
    appendCacheResponse(out, options_.sessionId);
    for (std::size_t i = first; i < ring_.size(); ++i) out += ring_[i]->deltaPdus;
    return reply;
}

std::size_t EpochStore::epochsHeld() const {
    rc::LockGuard lock(mutex_);
    return ring_.size();
}

std::string epochDumpLine(std::uint64_t seed, const Epoch& epoch) {
    std::string line = "epoch seed=" + std::to_string(seed);
    line += " round=" + std::to_string(epoch.round);
    line += " serial=" + std::to_string(epoch.serial);
    line += " tuples=" + std::to_string(epoch.state->size());
    line += " announced=" + std::to_string(epoch.announced);
    line += " withdrawn=" + std::to_string(epoch.withdrawn);
    line += " snapshot_len=" + std::to_string(epoch.snapshotPdus.size());
    line += " snapshot_sha256=" + sha256(epoch.snapshotPdus).hex();
    line += " delta_len=" + std::to_string(epoch.deltaPdus.size());
    line += " delta_sha256=" + sha256(epoch.deltaPdus).hex();
    line += "\n";
    return line;
}

}  // namespace rpkic::serve
