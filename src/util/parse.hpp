// Checked decimal parsing shared by the fault-plan text form, the
// --faulty-set spec and command-line flags.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/errors.hpp"

namespace rpkic {

/// Parses `value` in full as an unsigned decimal u64: no sign, no
/// whitespace, no trailing bytes, no overflow. Throws ParseError naming
/// `field` otherwise.
inline std::uint64_t parseU64(std::string_view value, const char* field) {
    if (value.empty()) throw ParseError(std::string("empty ") + field + " field");
    std::uint64_t out = 0;
    for (char ch : value) {
        if (ch < '0' || ch > '9') {
            throw ParseError(std::string("non-numeric ") + field + ": " + std::string(value));
        }
        const std::uint64_t digit = static_cast<std::uint64_t>(ch - '0');
        if (out > (UINT64_MAX - digit) / 10) {
            throw ParseError(std::string(field) + " overflows u64: " + std::string(value));
        }
        out = out * 10 + digit;
    }
    return out;
}

/// parseU64, then rejects values above UINT32_MAX: a u32 field never
/// silently wraps.
inline std::uint32_t parseU32(std::string_view value, const char* field) {
    const std::uint64_t out = parseU64(value, field);
    if (out > UINT32_MAX) {
        throw ParseError(std::string(field) + " overflows u32: " + std::string(value));
    }
    return static_cast<std::uint32_t>(out);
}

}  // namespace rpkic
