#include "probe.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace pipebench {

namespace {

// Result sink, so the compiler cannot drop the work.
volatile std::uint64_t probeSink = 0;

std::uint64_t xorshift(std::uint64_t* x) {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
}

}  // namespace

double hostProbeMs() {
    constexpr std::size_t kWords = std::size_t{1} << 20;  // 8 MiB
    constexpr std::uint64_t kFnvPrime = 1099511628211ull;
    const std::uint64_t start = nowNs();
    std::vector<std::uint64_t> buf(kWords, 1);
    std::uint64_t x = 88172645463325252ull;
    std::uint64_t h = 1469598103934665603ull;
    for (int i = 0; i < 200000; ++i) {
        const std::uint64_t r = xorshift(&x);
        buf[r & (kWords - 1)] += h;
        h = (h ^ buf[(r >> 20) & (kWords - 1)]) * kFnvPrime;
    }
    {
        std::map<std::uint64_t, std::string> nodes;
        for (int i = 0; i < 20000; ++i) {
            const std::uint64_t r = xorshift(&x);
            nodes.emplace(r, std::string(24 + (r & 31), 'a'));
        }
        for (const auto& [key, value] : nodes) h = (h ^ key ^ value.size()) * kFnvPrime;
    }
    for (int pass = 0; pass < 8; ++pass) {
        for (std::size_t i = 0; i < kWords / 8; ++i) h = (h ^ buf[i]) * kFnvPrime;
    }
    probeSink = probeSink + h;
    return static_cast<double>(nowNs() - start) / 1e6;
}

}  // namespace pipebench
