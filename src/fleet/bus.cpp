#include "fleet/bus.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace rpkic::fleet {

bool LinkFault::matches(std::uint32_t f, std::uint32_t t, std::uint64_t e) const {
    if (!activeAt(e)) return false;
    if (kind == LinkFaultKind::Partition) {
        // Endpoints on opposite sides of the bitmask cannot exchange
        // messages; the aggregator (or any id >= 64) sits outside the mask
        // and counts as side 0.
        const auto side = [this](std::uint32_t id) -> bool {
            return id < 64 && ((param >> id) & 1) != 0;
        };
        return side(f) != side(t);
    }
    if (from != kMatchAny && from != f) return false;
    if (to != kMatchAny && to != t) return false;
    return true;
}

void MessageBus::send(std::uint32_t from, std::uint32_t to, std::uint64_t epoch,
                      ByteView payload) {
    RC_CHECK(from < participants_ && to < participants_, "bus endpoint out of range");
    ++stats_.sent;
    Envelope env;
    env.from = from;
    env.to = to;
    env.sentEpoch = epoch;
    env.deliverEpoch = epoch;
    env.seq = nextSeq_++;
    env.payload.assign(payload.begin(), payload.end());
    for (const LinkFault& f : faults_) {
        if (!f.matches(from, to, epoch)) continue;
        switch (f.kind) {
            case LinkFaultKind::Partition:
            case LinkFaultKind::Lose:
                ++stats_.lost;
                return;
            case LinkFaultKind::Corrupt:
                if (!env.payload.empty()) {
                    const std::uint64_t bit = f.param % (env.payload.size() * 8);
                    env.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                    ++stats_.corrupted;
                }
                break;
            case LinkFaultKind::Delay:
                env.deliverEpoch = env.sentEpoch + std::max<std::uint64_t>(1, f.param);
                ++stats_.delayed;
                break;
        }
    }
    queue_.push_back(std::move(env));
}

void MessageBus::broadcast(std::uint32_t from, std::uint64_t epoch, ByteView payload) {
    for (std::uint32_t to = 0; to < participants_; ++to) {
        if (to != from) send(from, to, epoch, payload);
    }
}

std::vector<Envelope> MessageBus::collect(std::uint32_t to, std::uint64_t epoch) {
    std::vector<Envelope> out;
    std::vector<Envelope> keep;
    keep.reserve(queue_.size());
    for (Envelope& env : queue_) {
        if (env.to == to && env.deliverEpoch <= epoch) {
            out.push_back(std::move(env));
        } else {
            keep.push_back(std::move(env));
        }
    }
    queue_ = std::move(keep);
    std::sort(out.begin(), out.end(), [](const Envelope& a, const Envelope& b) {
        if (a.sentEpoch != b.sentEpoch) return a.sentEpoch < b.sentEpoch;
        if (a.from != b.from) return a.from < b.from;
        return a.seq < b.seq;
    });
    stats_.delivered += out.size();
    return out;
}

}  // namespace rpkic::fleet
