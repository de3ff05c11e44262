// SHA-256 (FIPS 180-4), implemented from scratch.
//
// The whole transparency architecture rests on two cryptographic
// assumptions: collision-resistant hashing (for manifest chains and object
// identity) and unforgeable signatures (built from this hash in wots.hpp /
// xmss.hpp). Tests validate this implementation against the NIST test
// vectors.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "util/bytes.hpp"

namespace rpkic {

/// A 32-byte digest. Value type with ordering and hashing support so it can
/// key maps and live in sorted containers.
struct Digest {
    std::array<std::uint8_t, 32> bytes{};

    auto operator<=>(const Digest&) const = default;

    bool isZero() const {
        for (auto b : bytes)
            if (b != 0) return false;
        return true;
    }

    std::string hex() const { return toHex(ByteView(bytes.data(), bytes.size())); }

    /// Short prefix of the hex form, for log and alarm messages.
    std::string shortHex() const { return hex().substr(0, 12); }

    static Digest fromHex(std::string_view hex);
};

/// Streaming SHA-256.
class Sha256 {
public:
    Sha256();

    Sha256& update(ByteView data);
    Sha256& update(std::string_view s);

    /// Finalizes and returns the digest. The object must not be reused
    /// afterwards without reset().
    Digest finish();

    void reset();

private:
    std::uint32_t state_[8];
    std::uint64_t totalBytes_;
    std::uint8_t buffer_[64];
    std::size_t bufferLen_;
};

/// One-shot convenience.
Digest sha256(ByteView data);
Digest sha256(std::string_view s);

/// Hash of the concatenation of two digests; the Merkle-tree node function.
Digest sha256Pair(const Digest& left, const Digest& right);

}  // namespace rpkic

template <>
struct std::hash<rpkic::Digest> {
    std::size_t operator()(const rpkic::Digest& d) const noexcept {
        std::size_t h = 0;
        for (int i = 0; i < 8; ++i) h = h * 31 + d.bytes[i];
        // The first 8 bytes of a SHA-256 output are already uniform; fold
        // them directly.
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v = (v << 8) | d.bytes[i];
        return static_cast<std::size_t>(v) ^ h;
    }
};
