// Shared helpers for the fleet's text forms: the --faulty-set list and
// the transcript writer's single-token check.
// Internal to src/fleet/ — not part of the public surface.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/errors.hpp"

namespace rpkic::fleet::detail {

/// Splits on `sep`; an empty input yields no items. Empty items are
/// rejected (a canonical list never writes them).
inline std::vector<std::string_view> splitList(std::string_view value, char sep) {
    std::vector<std::string_view> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t end = value.find(sep, pos);
        if (end == std::string_view::npos) end = value.size();
        const std::string_view item = value.substr(pos, end - pos);
        if (item.empty()) throw ParseError("empty item in list");
        out.push_back(item);
        if (end == value.size()) break;
        pos = end + 1;
    }
    return out;
}

/// Transcript fields are single tokens: no whitespace, newlines, or the
/// list separators the format reserves.
inline void requireTranscriptSafe(std::string_view s, const char* what) {
    for (char ch : s) {
        if (ch == ' ' || ch == '\n' || ch == '\t' || ch == ',' || ch == '@' || ch == '=') {
            throw UsageError(std::string(what) + " contains a reserved character: " +
                             std::string(s));
        }
    }
}

}  // namespace rpkic::fleet::detail
