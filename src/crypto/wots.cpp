#include "crypto/wots.hpp"

#include <cstring>
#include <utility>

#include "crypto/sha256_kernels.hpp"

namespace rpkic::wots {

namespace {

// PRF for secret chain heads: SHA-256("wots-sk" || seed || leaf || chain).
Digest prfSecret(const Digest& secretSeed, std::uint32_t leafIndex, std::uint32_t chain) {
    Sha256 h;
    h.update("wots-sk");
    h.update(ByteView(secretSeed.bytes.data(), secretSeed.bytes.size()));
    const std::uint8_t ctx[8] = {
        static_cast<std::uint8_t>(leafIndex >> 24), static_cast<std::uint8_t>(leafIndex >> 16),
        static_cast<std::uint8_t>(leafIndex >> 8),  static_cast<std::uint8_t>(leafIndex),
        static_cast<std::uint8_t>(chain >> 24),     static_cast<std::uint8_t>(chain >> 16),
        static_cast<std::uint8_t>(chain >> 8),      static_cast<std::uint8_t>(chain),
    };
    h.update(ByteView(ctx, sizeof ctx));
    return h.finish();
}

// Walks chain c from position begin[c] to end[c], replacing values[c] by
// the chain's value there. One step hashes a single SHA-256 block: 51 bytes
// (domain byte, 12-byte public-seed prefix, leaf index, chain, position,
// value) and their padding. Steps are domain separated by position so
// partial chains cannot be replayed at a different height.
//
// Each lane lays out its block once per chain and then rewrites only the
// position and, through the digest the kernel stores in place, the value;
// kLanes chains stay in flight, so the SHA-NI kernel overlaps their steps.
void walkChains(const Digest& publicSeed, std::uint32_t leafIndex,
                const std::array<std::uint8_t, kChains>& begin,
                const std::array<std::uint8_t, kChains>& end, std::array<Digest, kChains>& values) {
    constexpr std::size_t kLanes = sha256_kernels::kLanes;
    constexpr std::size_t kValue = 19;
    struct Lane {
        std::uint8_t block[64];
        int chain;
    };
    std::array<Lane, kLanes> lanes;
    for (Lane& lane : lanes) {
        std::uint8_t* b = lane.block;
        std::memset(b, 0, sizeof lane.block);
        b[0] = 0xF1;
        std::memcpy(b + 1, publicSeed.bytes.data(), 12);
        b[13] = static_cast<std::uint8_t>(leafIndex >> 24);
        b[14] = static_cast<std::uint8_t>(leafIndex >> 16);
        b[15] = static_cast<std::uint8_t>(leafIndex >> 8);
        b[16] = static_cast<std::uint8_t>(leafIndex);
        b[51] = 0x80;
        b[62] = 51 * 8 >> 8;  // the message length in bits, big-endian
        b[63] = 51 * 8 & 0xFF;
    }

    // Chains with no step keep their value and never take a lane.
    int next = 0;
    const auto load = [&](Lane& lane) {
        while (next < kChains && begin[next] == end[next]) ++next;
        if (next == kChains) return false;
        lane.chain = next;
        lane.block[17] = static_cast<std::uint8_t>(next);  // kChains = 67 < 256
        lane.block[18] = begin[next];                       // <= 15
        std::memcpy(lane.block + kValue, values[next].bytes.data(), 32);
        ++next;
        return true;
    };
    std::size_t active = 0;
    while (active < kLanes && load(lanes[active])) ++active;
    while (active > 0) {
        const std::uint8_t* blocks[kLanes];
        std::uint8_t* digests[kLanes];
        for (std::size_t i = 0; i < active; ++i) {
            blocks[i] = lanes[i].block;
            digests[i] = lanes[i].block + kValue;
        }
        sha256_kernels::lanes(blocks, digests, active);
        for (std::size_t i = 0; i < active;) {
            Lane& lane = lanes[i];
            if (++lane.block[18] < end[lane.chain]) {
                ++i;
                continue;
            }
            std::memcpy(values[lane.chain].bytes.data(), lane.block + kValue, 32);
            if (load(lane)) {
                ++i;
            } else {
                std::swap(lane, lanes[--active]);  // no chain left: retire the lane
            }
        }
    }
}

constexpr std::array<std::uint8_t, kChains> kChainStarts{};
constexpr std::array<std::uint8_t, kChains> kChainEnds = [] {
    std::array<std::uint8_t, kChains> ends{};
    ends.fill(kChainLen);
    return ends;
}();

Digest compress(const std::array<Digest, kChains>& tails) {
    Sha256 h;
    h.update("wots-pk");
    for (const auto& t : tails) h.update(ByteView(t.bytes.data(), t.bytes.size()));
    return h.finish();
}

}  // namespace

std::array<std::uint8_t, kChains> messageDigits(const Digest& messageDigest) {
    std::array<std::uint8_t, kChains> digits{};
    for (int i = 0; i < 32; ++i) {
        digits[2 * i] = messageDigest.bytes[i] >> 4;
        digits[2 * i + 1] = messageDigest.bytes[i] & 0x0f;
    }
    // Checksum: sum over message digits of (w-1 - digit), base-16 encoded.
    std::uint32_t checksum = 0;
    for (int i = 0; i < kMsgChains; ++i) checksum += kChainLen - digits[i];
    for (int i = 0; i < kChecksumChains; ++i) {
        digits[kMsgChains + i] =
            static_cast<std::uint8_t>((checksum >> (4 * (kChecksumChains - 1 - i))) & 0x0f);
    }
    return digits;
}

std::array<Digest, kChains> deriveSecretChains(const Digest& secretSeed, std::uint32_t leafIndex) {
    std::array<Digest, kChains> sk;
    for (int c = 0; c < kChains; ++c) sk[c] = prfSecret(secretSeed, leafIndex, c);
    return sk;
}

Digest derivePublicKey(const Digest& secretSeed, const Digest& publicSeed,
                       std::uint32_t leafIndex) {
    auto values = deriveSecretChains(secretSeed, leafIndex);
    walkChains(publicSeed, leafIndex, kChainStarts, kChainEnds, values);
    return compress(values);
}

Signature sign(const Digest& secretSeed, const Digest& publicSeed, std::uint32_t leafIndex,
               const Digest& messageDigest) {
    Signature sig = deriveSecretChains(secretSeed, leafIndex);
    walkChains(publicSeed, leafIndex, kChainStarts, messageDigits(messageDigest), sig);
    return sig;
}

Digest publicKeyFromSignature(const Digest& publicSeed, std::uint32_t leafIndex,
                              const Digest& messageDigest, const Signature& sig) {
    std::array<Digest, kChains> values = sig;
    walkChains(publicSeed, leafIndex, messageDigits(messageDigest), kChainEnds, values);
    return compress(values);
}

}  // namespace rpkic::wots
