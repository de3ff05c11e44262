// Shared helpers for the fleet's line-oriented transcript format
// (key=value tokens, like the FaultPlan text encoding in rpki/chaos.cpp).
// Internal to src/fleet/ — not part of the public surface.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/errors.hpp"
#include "util/parse.hpp"

namespace rpkic::fleet::detail {

/// Splits a whitespace-separated line of key=value tokens, skipping the
/// leading `tag` word. Throws ParseError when the tag or shape is wrong.
inline std::vector<std::pair<std::string_view, std::string_view>> keyValueTokens(
    std::string_view line, std::string_view tag) {
    std::vector<std::pair<std::string_view, std::string_view>> out;
    std::size_t pos = 0;
    bool sawTag = false;
    while (pos < line.size()) {
        while (pos < line.size() && line[pos] == ' ') ++pos;
        if (pos >= line.size()) break;
        std::size_t end = line.find(' ', pos);
        if (end == std::string_view::npos) end = line.size();
        const std::string_view token = line.substr(pos, end - pos);
        pos = end;
        if (!sawTag) {
            if (token != tag) {
                throw ParseError("expected '" + std::string(tag) + "' line, got: " +
                                 std::string(token));
            }
            sawTag = true;
            continue;
        }
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos) {
            throw ParseError(std::string(tag) + " token is not key=value: " + std::string(token));
        }
        out.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
    if (!sawTag) throw ParseError("empty " + std::string(tag) + " line");
    return out;
}

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

inline bool transcriptSafe(std::string_view s) {
    for (char ch : s) {
        if (ch == ' ' || ch == '\n' || ch == '\t' || ch == ',' || ch == '@' || ch == '=') {
            return false;
        }
    }
    return true;
}

/// Transcript fields are single tokens: no whitespace, newlines, or the
/// list separators the format reserves. Serialization-side check.
inline void requireTranscriptSafe(std::string_view s, const char* what) {
    if (!transcriptSafe(s)) {
        throw UsageError(std::string(what) + " contains a reserved character: " + std::string(s));
    }
}

/// Parse-side twin of requireTranscriptSafe: the parser must reject any
/// token its own serializer could never have written (keyValueTokens
/// splits at the *first* '=', so a later '=' or a tab would otherwise
/// sneak through and break the parse→serialize round trip).
inline void requireParsedTokenSafe(std::string_view s, const char* what) {
    if (!transcriptSafe(s)) {
        throw ParseError(std::string(what) + " contains a reserved character: " + std::string(s));
    }
}

}  // namespace rpkic::fleet::detail
