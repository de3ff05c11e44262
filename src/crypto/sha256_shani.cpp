// SHA-256 block and lanes kernels on the x86 SHA extensions (SHA-NI).
//
// The state is kept as two vectors, ABEF and CDGH, the layout
// sha256rnds2 works on; each sha256rnds2 does two rounds, so every group
// of four message words takes two. sha256msg1/msg2 extend the message
// schedule four words at a time: W[t..t+3] from W[t-16..t-1].
//
// Each sha256rnds2 waits for the one before it, so one block leaves the
// unit idle between rounds. The lanes kernel interleaves the rounds of up
// to kLanes independent blocks to fill those gaps.
#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

namespace rpkic::sha256_kernels {

namespace {

// Rounds 4g .. 4g+3 of one block on W[4g .. 4g+3] = w[g % 4], then (for
// g < 12) W[4g+16 ..] = W[4g ..] + s0(W[4g+1 ..]) + W[4g+9 ..] + s1(W[4g+14 ..]).
__attribute__((target("sha,sse4.1"))) inline void fourRounds(int g, __m128i& abef,
                                                             __m128i& cdgh, __m128i w[4]) {
    __m128i wk = _mm_add_epi32(
        w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
    wk = _mm_shuffle_epi32(wk, 0x0E);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    if (g < 12) {
        const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                                              _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(partial, w[(g + 3) & 3]);
    }
}

/// Exactly N blocks, every lane's round group g before any lane's g + 1.
template <std::size_t N>
__attribute__((target("sha,sse4.1"))) void interleaved(const std::uint8_t* const blocks[],
                                                       std::uint8_t* const digests[]) {
    const __m128i byteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    // The initial value H0..H7 as ABEF and CDGH.
    const __m128i ivAbef = _mm_set_epi32(0x6a09e667, 0xbb67ae85, 0x510e527f, 0x9b05688c);
    const __m128i ivCdgh = _mm_set_epi32(0x3c6ef372, 0xa54ff53a, 0x1f83d9ab, 0x5be0cd19);

    __m128i abef[N];
    __m128i cdgh[N];
    __m128i w[N][4];
    for (std::size_t l = 0; l < N; ++l) {
        abef[l] = ivAbef;
        cdgh[l] = ivCdgh;
        for (int i = 0; i < 4; ++i) {
            w[l][i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks[l] + 16 * i)), byteSwap);
        }
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
#pragma GCC unroll 8
        for (std::size_t l = 0; l < N; ++l) fourRounds(g, abef[l], cdgh[l], w[l]);
    }
    for (std::size_t l = 0; l < N; ++l) {
        const __m128i feba = _mm_shuffle_epi32(_mm_add_epi32(abef[l], ivAbef), 0x1B);
        const __m128i dchg = _mm_shuffle_epi32(_mm_add_epi32(cdgh[l], ivCdgh), 0xB1);
        // A..D and E..H, each word stored big-endian.
        _mm_storeu_si128(reinterpret_cast<__m128i*>(digests[l]),
                         _mm_shuffle_epi8(_mm_blend_epi16(feba, dchg, 0xF0), byteSwap));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(digests[l] + 16),
                         _mm_shuffle_epi8(_mm_alignr_epi8(dchg, feba, 8), byteSwap));
    }
}

template <std::size_t N>
__attribute__((target("sha,sse4.1"))) void interleavedUpTo(const std::uint8_t* const blocks[],
                                                           std::uint8_t* const digests[],
                                                           std::size_t count) {
    if constexpr (N > 1) {
        if (count < N) return interleavedUpTo<N - 1>(blocks, digests, count);
    }
    interleaved<N>(blocks, digests);
}

}  // namespace

__attribute__((target("sha,sse4.1"))) void shaNi(std::uint32_t state[8],
                                                  const std::uint8_t* data,
                                                  std::size_t blocks) {
    // Big-endian message words into little-endian lanes.
    const __m128i byteSwap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

    // Lane names below read from lane 3 down to lane 0; state[0..7] = A..H.
    const __m128i cdab = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
    const __m128i efgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blocks > 0; --blocks, data += 64) {
        const __m128i abefSaved = abef;
        const __m128i cdghSaved = cdgh;
        __m128i w[4];
        for (int i = 0; i < 4; ++i) {
            w[i] = _mm_shuffle_epi8(
                _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)), byteSwap);
        }
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) fourRounds(g, abef, cdgh, w);
        abef = _mm_add_epi32(abef, abefSaved);
        cdgh = _mm_add_epi32(cdgh, cdghSaved);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // DCBA and HGFE: back to state[0..7] = A..H.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}

__attribute__((target("sha,sse4.1"))) void shaNiLanes(const std::uint8_t* const blocks[],
                                                      std::uint8_t* const digests[],
                                                      std::size_t count) {
    interleavedUpTo<kLanes>(blocks, digests, count);
}

bool shaNiAvailable() {
    // CPUID directly rather than __builtin_cpu_supports("sha"): not every
    // clang release accepts that key, and CPUID needs no runtime init when
    // the first call comes from another translation unit's static
    // constructor.
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_SSE4_1) == 0) return false;
    return __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0 && (ebx & bit_SHA) != 0;
}

}  // namespace rpkic::sha256_kernels

#else

namespace rpkic::sha256_kernels {

bool shaNiAvailable() {
    return false;
}

}  // namespace rpkic::sha256_kernels

#endif
