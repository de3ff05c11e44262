#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_kernels.hpp"
#include "util/errors.hpp"

namespace rpkic {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

std::uint32_t rotr(std::uint32_t x, int n) {
    return (x >> n) | (x << (32 - n));
}

using BlockKernel = void (*)(std::uint32_t*, const std::uint8_t*, std::size_t);

// Chosen on first use, not at load time, so a hash taken by another
// translation unit's static initialiser already gets a valid kernel.
BlockKernel blockKernel() {
#if defined(__x86_64__)
    static const BlockKernel kernel =
        sha256_kernels::shaNiAvailable() ? sha256_kernels::shaNi : sha256_kernels::portable;
    return kernel;
#else
    return sha256_kernels::portable;
#endif
}

void storeDigest(const std::uint32_t state[8], std::uint8_t* out) {
    for (int i = 0; i < 8; ++i) {
        out[4 * i + 0] = static_cast<std::uint8_t>(state[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state[i]);
    }
}

}  // namespace

Digest Digest::fromHex(std::string_view hex) {
    const Bytes raw = rpkic::fromHex(hex);
    if (raw.size() != 32) throw ParseError("digest hex must encode exactly 32 bytes");
    Digest d;
    std::memcpy(d.bytes.data(), raw.data(), 32);
    return d;
}

Sha256::Sha256() {
    reset();
}

void Sha256::reset() {
    std::memcpy(state_, kInit, sizeof state_);
    totalBytes_ = 0;
    bufferLen_ = 0;
}

Sha256& Sha256::update(ByteView data) {
    if (data.empty()) return *this;
    totalBytes_ += data.size();
    std::size_t offset = 0;
    if (bufferLen_ > 0) {
        const std::size_t take = std::min(data.size(), 64 - bufferLen_);
        std::memcpy(buffer_ + bufferLen_, data.data(), take);
        bufferLen_ += take;
        offset = take;
        if (bufferLen_ == 64) {
            blockKernel()(state_, buffer_, 1);
            bufferLen_ = 0;
        }
    }
    if (const std::size_t blocks = (data.size() - offset) / 64; blocks > 0) {
        blockKernel()(state_, data.data() + offset, blocks);
        offset += blocks * 64;
    }
    if (offset < data.size()) {
        bufferLen_ = data.size() - offset;
        std::memcpy(buffer_, data.data() + offset, bufferLen_);
    }
    return *this;
}

Sha256& Sha256::update(std::string_view s) {
    return update(ByteView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

Digest Sha256::finish() {
    // Padding in one pass: 0x80, zeros up to 56 mod 64, then the message
    // length in bits, big-endian. One block, or two when fewer than 9
    // bytes are left in the buffered one.
    std::uint8_t tail[128] = {};
    std::memcpy(tail, buffer_, bufferLen_);
    tail[bufferLen_] = 0x80;
    const std::size_t tailLen = bufferLen_ < 56 ? 64 : 128;
    const std::uint64_t bitLen = totalBytes_ * 8;
    for (int i = 0; i < 8; ++i) tail[tailLen - 1 - i] = static_cast<std::uint8_t>(bitLen >> (8 * i));
    blockKernel()(state_, tail, tailLen / 64);

    Digest out;
    storeDigest(state_, out.bytes.data());
    return out;
}

namespace sha256_kernels {

void portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks) {
    for (; blocks > 0; --blocks, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(data[4 * i]) << 24) |
                   (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
                   (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
                   static_cast<std::uint32_t>(data[4 * i + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t temp1 = h + s1 + ch + kRound[i] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t temp2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + temp1;
            d = c;
            c = b;
            b = a;
            a = temp1 + temp2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

void portableLanes(const std::uint8_t* const blocks[], std::uint8_t* const digests[],
                   std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t state[8];
        std::memcpy(state, kInit, sizeof state);
        portable(state, blocks[i], 1);
        storeDigest(state, digests[i]);
    }
}

void lanes(const std::uint8_t* const blocks[], std::uint8_t* const digests[], std::size_t count) {
#if defined(__x86_64__)
    using Kernel = void (*)(const std::uint8_t* const*, std::uint8_t* const*, std::size_t);
    static const Kernel kernel = shaNiAvailable() ? shaNiLanes : portableLanes;
    kernel(blocks, digests, count);
#else
    portableLanes(blocks, digests, count);
#endif
}

}  // namespace sha256_kernels

Digest sha256(ByteView data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Digest sha256(std::string_view s) {
    Sha256 h;
    h.update(s);
    return h.finish();
}

Digest sha256Pair(const Digest& left, const Digest& right) {
    Sha256 h;
    h.update(ByteView(left.bytes.data(), left.bytes.size()));
    h.update(ByteView(right.bytes.data(), right.bytes.size()));
    return h.finish();
}

}  // namespace rpkic
