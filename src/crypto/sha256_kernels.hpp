// SHA-256 block kernels behind Sha256. Private: only src/crypto and the
// fuzz driver include this; callers hash through crypto/sha256.hpp.
//
// A kernel compresses `blocks` consecutive 64-byte message blocks into an
// eight-word chaining state. The portable kernel runs everywhere and is the
// reference; the SHA-NI kernel uses the x86 SHA extensions and is chosen
// once per process when the CPU has them. Both must leave the same state
// for the same blocks (fuzz/fuzz_sha256.cpp checks exactly that).
//
// A lanes kernel hashes up to kLanes independent one-block messages at
// once, for callers such as the WOTS chains that hash many short inputs
// whose padding they lay out themselves.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rpkic::sha256_kernels {

/// FIPS 180-4 round constants K0..K63 (16-byte aligned for vector loads).
alignas(16) inline constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

void portable(std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks);

#if defined(__x86_64__)
/// Requires shaNiAvailable(); executing it elsewhere faults.
void shaNi(std::uint32_t state[8], const std::uint8_t* data, std::size_t blocks);
#endif

/// Most blocks one lanes call takes. The SHA-NI kernel keeps that many
/// compressions in flight; 3 and 4 measured fastest (docs/PERFORMANCE.md,
/// "WOTS chains in lanes").
inline constexpr std::size_t kLanes = 4;

/// Compresses each of `count` (1..kLanes) blocks, already padded as a
/// whole one-block message, from the SHA-256 initial value, and stores its
/// 32-byte digest at digests[i]. digests[i] may overlap blocks[i], but no
/// other block.
void portableLanes(const std::uint8_t* const blocks[], std::uint8_t* const digests[],
                   std::size_t count);

#if defined(__x86_64__)
/// portableLanes on the SHA extensions. Requires shaNiAvailable().
void shaNiLanes(const std::uint8_t* const blocks[], std::uint8_t* const digests[],
                std::size_t count);
#endif

/// portableLanes or shaNiLanes, chosen once per process like Sha256's
/// block kernel.
void lanes(const std::uint8_t* const blocks[], std::uint8_t* const digests[], std::size_t count);

/// True when this CPU has the SHA extensions and SSE4.1. Always false off
/// x86-64. Safe to call during static initialisation.
bool shaNiAvailable();

}  // namespace rpkic::sha256_kernels
