// Fuzz driver for SHA-256 (crypto/sha256, crypto/sha256_kernels). Input
// layout: byte 0 names k = byte0 % 8 chunk sizes, bytes 1..k are those
// sizes (0-255, used in turn as update() lengths), the rest is the
// message. Oracles:
//
//  (a) streaming the message through update() in those chunks gives the
//      same digest as the one-shot sha256();
//  (b) where the CPU has SHA-NI, the SHA-NI and portable block kernels
//      leave the same state for the same blocks (the message zero-padded
//      to whole blocks, from a chaining value taken from the digest).
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

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    const std::size_t k = size == 0 ? 0 : std::min<std::size_t>(data[0] % 8, size - 1);
    const std::size_t header = size == 0 ? 0 : 1 + k;
    const ByteView sizes(data + std::min<std::size_t>(1, size), k);
    const ByteView msg(data + header, size - header);

    const Digest oneShot = sha256(msg);
    if (streamed(msg, sizes) != oneShot) fail("streamed digest != one-shot digest");
    checkKernels(oneShot, msg);
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
