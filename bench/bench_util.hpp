// Shared console-output helpers for the experiment harnesses: aligned
// tables, "paper vs measured" comparison rows, and a stopwatch that reads
// the observability layer's injectable clock.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/clock.hpp"
#include "util/parse.hpp"

namespace rpkic::bench {

/// Bench timer on obs::timeSource(): benches, metrics histograms, and
/// traces all read the same clock. Installing a LogicalTimeSource (as the
/// determinism tests do) therefore makes bench timings reproducible too;
/// by default this is the steady wall clock.
class Stopwatch {
public:
    Stopwatch() : startNanos_(obs::nowNanos()) {}
    void reset() { startNanos_ = obs::nowNanos(); }
    std::uint64_t elapsedNanos() const { return obs::nowNanos() - startNanos_; }
    double elapsedMs() const { return static_cast<double>(elapsedNanos()) / 1e6; }
    double elapsedSeconds() const { return static_cast<double>(elapsedNanos()) / 1e9; }

private:
    std::uint64_t startNanos_;
};

/// A numeric flag's value, parsed in full (util/parse.hpp). A malformed
/// value ends the run with exit status 2, like any other usage error.
inline std::uint64_t flagU64(const char* value, const char* flag) {
    try {
        return parseU64(value, flag);
    } catch (const ParseError& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(2);
    }
}

inline void heading(const std::string& title) {
    std::printf("\n================================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
    std::printf("\n--- %s ---\n", title.c_str());
}

/// Prints one row of an aligned table; column widths fixed at 16.
inline void row(const std::vector<std::string>& cells) {
    for (const auto& cell : cells) std::printf("%-16s", cell.c_str());
    std::printf("\n");
}

inline void separator(std::size_t columns) {
    for (std::size_t i = 0; i < columns; ++i) std::printf("%-16s", "---------------");
    std::printf("\n");
}

/// "paper: X, measured: Y" comparison line.
inline void compare(const std::string& what, const std::string& paper,
                    const std::string& measured) {
    std::printf("  %-52s paper: %-14s measured: %s\n", what.c_str(), paper.c_str(),
                measured.c_str());
}

inline std::string num(double v, int decimals = 1) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
    return buf;
}

inline std::string num(std::uint64_t v) {
    return std::to_string(v);
}

inline std::string percent(double fraction, int decimals = 1) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f%%", decimals, fraction * 100.0);
    return buf;
}

}  // namespace rpkic::bench
