// SHA-256 block kernel on the x86 SHA extensions (SHA-NI).
//
// The state is kept as two vectors, ABEF and CDGH, the layout
// sha256rnds2 works on; each sha256rnds2 does two rounds, so every group
// of four message words takes two. sha256msg1/msg2 extend the message
// schedule four words at a time: W[t..t+3] from W[t-16..t-1].
#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__)

#include <cpuid.h>
#include <immintrin.h>

namespace rpkic::sha256_kernels {

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
        for (int g = 0; g < 16; ++g) {
            // Rounds 4g .. 4g+3 on W[4g .. 4g+3] = w[g % 4].
            __m128i wk = _mm_add_epi32(
                w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(kRound + 4 * g)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (g < 12) {
                // W[4g+16 ..] = W[4g ..] + s0(W[4g+1 ..]) + W[4g+9 ..] + s1(W[4g+14 ..]).
                const __m128i partial = _mm_add_epi32(
                    _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                    _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
                w[g & 3] = _mm_sha256msg2_epu32(partial, w[(g + 3) & 3]);
            }
        }
        abef = _mm_add_epi32(abef, abefSaved);
        cdgh = _mm_add_epi32(cdgh, cdghSaved);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // DCBA and HGFE: back to state[0..7] = A..H.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
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
