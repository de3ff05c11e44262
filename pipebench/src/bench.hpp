// Small helpers shared by the benchmark's files: the steady clock every
// bench-side timer reads, and order statistics.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace pipebench {

inline std::uint64_t nowNs() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
    return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

}  // namespace pipebench
