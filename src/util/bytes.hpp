// Byte-buffer utilities: the `Bytes` alias used for all serialized objects,
// plus hex conversion helpers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rpkic {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Lowercase hex encoding of a byte range.
std::string toHex(ByteView data);

/// Inverse of toHex. Throws ParseError on odd length or non-hex characters.
Bytes fromHex(std::string_view hex);

}  // namespace rpkic
