// Canonical binary encoding for RPKI objects.
//
// The production RPKI uses X.509/DER (RFC 6487); this library substitutes a
// deterministic length-prefixed binary format (see DESIGN.md). The
// architecture only requires that (a) encoding is injective — two distinct
// objects never share bytes — so object hashes identify objects, and
// (b) decoding rejects malformed input. Fields are written in a fixed
// order with fixed-width big-endian integers, so every object has exactly
// one encoding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "ip/prefix.hpp"
#include "ip/resource_set.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace rpkic {

class Encoder {
public:
    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /// Length-prefixed raw bytes.
    void bytes(ByteView data);
    /// Length-prefixed string.
    void str(std::string_view s);
    /// Fixed 32 bytes.
    void digest(const Digest& d);
    void u128(const U128& v);
    void prefix(const IpPrefix& p);
    void resources(const ResourceSet& r);

    Bytes take() { return std::move(out_); }
    const Bytes& view() const { return out_; }

private:
    Bytes out_;
};

class Decoder {
public:
    explicit Decoder(ByteView data) : data_(data) {}

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    bool boolean();

    Bytes bytes();
    std::string str();
    Digest digest();
    U128 u128();
    IpPrefix prefix();
    ResourceSet resources();

    bool atEnd() const { return pos_ == data_.size(); }
    /// The bytes not consumed yet.
    ByteView rest() const { return data_.subspan(pos_); }
    /// Throws ParseError if trailing bytes remain — every decode must
    /// consume its input exactly.
    void expectEnd() const;

private:
    ByteView need(std::size_t n);

    ByteView data_;
    std::size_t pos_ = 0;
};

}  // namespace rpkic
