// Fuzz driver for SHA-256 (crypto/sha256, crypto/sha256_kernels) and the
// WOTS chains built on it (crypto/wots). Input layout: byte 0 names
// k = byte0 % 8 chunk sizes, bytes 1..k are those sizes (0-255, used in
// turn as update() lengths), the rest is the message. Oracles:
//
//  (a) streaming the message through update() in those chunks gives the
//      same digest as the one-shot sha256();
//  (b) where the CPU has SHA-NI, the SHA-NI and portable block kernels
//      leave the same state for the same blocks (the message zero-padded
//      to whole blocks, from a chaining value taken from the digest);
//  (c) where the CPU has SHA-NI, the lanes kernel, given 1..kLanes padded
//      one-block messages cut from the message (the count taken from the
//      digest), stores for each the digest the portable lanes kernel and
//      sha256() give, both into a separate buffer and over its own block;
//  (d) wots::publicKeyFromSignature, whose chains walk in lanes, equals a
//      plain walk that hashes each 51-byte chain step with sha256(), for a
//      seed, leaf, message digest and signature derived from the message.
//
// Any violation aborts. The seeds under fuzz/corpus/sha256 sit on the
// padding boundaries (55/56/63/64/65 bytes) plus empty and multi-block
// messages.
//
// Built as a libFuzzer target under -DRC_FUZZ=ON (clang), or linked with
// driver_main.cpp into a seeded deterministic ctest case otherwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"
#include "crypto/wots.hpp"
#include "util/bytes.hpp"

namespace rpkic::fuzz {
namespace {

[[noreturn]] void fail(const char* what) {
    std::fprintf(stderr, "fuzz_sha256: oracle violated: %s\n", what);
    std::abort();
}

Digest streamed(ByteView msg, ByteView sizes) {
    std::size_t cycle = 0;
    for (const std::uint8_t s : sizes) cycle += s;
    Sha256 h;
    if (cycle == 0) return h.update(msg).finish();
    for (std::size_t i = 0, pos = 0; pos < msg.size(); ++i) {
        const std::size_t step = std::min<std::size_t>(sizes[i % sizes.size()], msg.size() - pos);
        h.update(ByteView(msg.data() + pos, step));
        pos += step;
    }
    return h.finish();
}

void checkKernels(const Digest& chaining, ByteView msg) {
#if defined(__x86_64__)
    if (!sha256_kernels::shaNiAvailable()) return;
    const std::size_t blocks = msg.size() / 64 + 1;
    Bytes padded(blocks * 64, 0);
    if (!msg.empty()) std::memcpy(padded.data(), msg.data(), msg.size());
    std::uint32_t portable[8];
    std::memcpy(portable, chaining.bytes.data(), sizeof portable);
    std::uint32_t shaNi[8];
    std::memcpy(shaNi, portable, sizeof shaNi);
    sha256_kernels::portable(portable, padded.data(), blocks);
    sha256_kernels::shaNi(shaNi, padded.data(), blocks);
    if (std::memcmp(portable, shaNi, sizeof portable) != 0) {
        fail("SHA-NI and portable kernels disagree");
    }
#else
    (void)chaining;
    (void)msg;
#endif
}

void checkLanes(const Digest& digest, ByteView msg) {
#if defined(__x86_64__)
    if (!sha256_kernels::shaNiAvailable()) return;
    constexpr std::size_t kLanes = sha256_kernels::kLanes;
    constexpr std::size_t kMaxMessage = 55;  // the most one padded block holds
    const std::size_t count = 1 + digest.bytes[0] % kLanes;
    std::uint8_t blocks[kLanes][64] = {};
    Digest expected[kLanes];
    const std::uint8_t* in[kLanes];
    for (std::size_t i = 0; i < count; ++i) {
        const std::size_t from = std::min(msg.size(), i * kMaxMessage);
        const std::size_t len = std::min(msg.size() - from, kMaxMessage);
        if (len > 0) std::memcpy(blocks[i], msg.data() + from, len);
        blocks[i][len] = 0x80;
        blocks[i][62] = static_cast<std::uint8_t>(len * 8 >> 8);
        blocks[i][63] = static_cast<std::uint8_t>(len * 8);
        expected[i] = sha256(ByteView(msg.data() + from, len));
        in[i] = blocks[i];
    }
    std::uint8_t portable[kLanes][32];
    std::uint8_t shaNi[kLanes][32];
    std::memset(shaNi, 0xA5, sizeof shaNi);
    std::uint8_t* portableOut[kLanes];
    std::uint8_t* shaNiOut[kLanes];
    for (std::size_t i = 0; i < count; ++i) {
        portableOut[i] = portable[i];
        shaNiOut[i] = shaNi[i];
    }
    sha256_kernels::portableLanes(in, portableOut, count);
    sha256_kernels::shaNiLanes(in, shaNiOut, count);
    for (std::size_t i = 0; i < count; ++i) {
        if (std::memcmp(portable[i], expected[i].bytes.data(), 32) != 0) {
            fail("portable lanes kernel != sha256()");
        }
        if (std::memcmp(shaNi[i], portable[i], 32) != 0) {
            fail("SHA-NI and portable lanes kernels disagree");
        }
    }
    // Over its own block, as the WOTS chains use it.
    const std::size_t at = digest.bytes[1] % 33;
    for (std::size_t i = 0; i < count; ++i) shaNiOut[i] = blocks[i] + at;
    sha256_kernels::shaNiLanes(in, shaNiOut, count);
    for (std::size_t i = 0; i < count; ++i) {
        if (std::memcmp(blocks[i] + at, portable[i], 32) != 0) {
            fail("SHA-NI lanes kernel stored over its block disagrees");
        }
    }
#else
    (void)digest;
    (void)msg;
#endif
}

// One chain step hashed the plain way: domain byte, 12-byte public-seed
// prefix, leaf index, chain, position, value (crypto/wots.cpp).
Digest plainStep(const Digest& publicSeed, std::uint32_t leaf, int chain, int position,
                 const Digest& value) {
    std::uint8_t buf[51];
    buf[0] = 0xF1;
    std::memcpy(buf + 1, publicSeed.bytes.data(), 12);
    for (int i = 0; i < 4; ++i) buf[13 + i] = static_cast<std::uint8_t>(leaf >> (24 - 8 * i));
    buf[17] = static_cast<std::uint8_t>(chain);
    buf[18] = static_cast<std::uint8_t>(position);
    std::memcpy(buf + 19, value.bytes.data(), 32);
    return sha256(ByteView(buf, sizeof buf));
}

void checkChains(const Digest& digest) {
    const Digest publicSeed = sha256Pair(digest, digest);
    std::uint32_t leaf = 0;
    for (int i = 2; i < 6; ++i) leaf = leaf << 8 | digest.bytes[i];
    wots::Signature sig;
    for (int c = 0; c < wots::kChains; ++c) {
        sig[c] = sha256Pair(publicSeed, c == 0 ? digest : sig[c - 1]);
    }
    const auto digits = wots::messageDigits(digest);
    Sha256 plain;
    plain.update("wots-pk");
    for (int c = 0; c < wots::kChains; ++c) {
        Digest value = sig[c];
        for (int p = digits[c]; p < wots::kChainLen; ++p) {
            value = plainStep(publicSeed, leaf, c, p, value);
        }
        plain.update(ByteView(value.bytes.data(), value.bytes.size()));
    }
    if (wots::publicKeyFromSignature(publicSeed, leaf, digest, sig) != plain.finish()) {
        fail("WOTS chains in lanes != plain chain walk");
    }
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    const std::size_t k = size == 0 ? 0 : std::min<std::size_t>(data[0] % 8, size - 1);
    const std::size_t header = size == 0 ? 0 : 1 + k;
    const ByteView sizes(data + std::min<std::size_t>(1, size), k);
    const ByteView msg(data + header, size - header);

    const Digest oneShot = sha256(msg);
    if (streamed(msg, sizes) != oneShot) fail("streamed digest != one-shot digest");
    checkKernels(oneShot, msg);
    checkLanes(oneShot, msg);
    checkChains(oneShot);
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
