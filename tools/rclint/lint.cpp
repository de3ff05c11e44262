// Per-file rules. The lexer lives in lex.cpp; the cross-file pipeline
// (include graph, layering, determinism closure, lock order) lives in
// tree.cpp / graph.cpp / nondet.cpp / lockorder.cpp; the CLI that wires
// them together lives in cli.cpp.
#include "lint.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <set>

namespace rclint {

namespace {

// ---------------------------------------------------------------------------
// Rule tables

struct BannedFn {
    const char* name;
    const char* why;
};
/// The unchecked integer parsers turn "4x" into 4, "abc" into 0 and "-1"
/// into a huge unsigned value without a word.
constexpr const char* kUncheckedParse =
    "accepts a malformed or partial number silently; use parseU64/parseU32";

constexpr BannedFn kBannedFns[] = {
    {"strcpy", "unbounded copy; use std::string or std::copy"},
    {"strcat", "unbounded append; use std::string"},
    {"sprintf", "unbounded format; use std::snprintf"},
    {"vsprintf", "unbounded format; use std::vsnprintf"},
    {"gets", "unbounded read; use std::getline"},
    {"rand", "hidden global state breaks seeded reproducibility; use rpkic::Rng"},
    {"srand", "hidden global state breaks seeded reproducibility; use rpkic::Rng"},
    {"atoi", kUncheckedParse},    {"atol", kUncheckedParse},    {"atoll", kUncheckedParse},
    {"strtol", kUncheckedParse},  {"strtoll", kUncheckedParse}, {"strtoul", kUncheckedParse},
    {"strtoull", kUncheckedParse}, {"stoi", kUncheckedParse},   {"stol", kUncheckedParse},
    {"stoll", kUncheckedParse},   {"stoul", kUncheckedParse},   {"stoull", kUncheckedParse},
};

const BannedFn* bannedFn(const std::string& name) {
    for (const BannedFn& b : kBannedFns) {
        if (name == b.name) return &b;
    }
    return nullptr;
}

/// C-compat headers and their C++ replacements.
const std::map<std::string, std::string>& cCompatHeaders() {
    static const std::map<std::string, std::string> kMap = {
        {"assert.h", "cassert"}, {"ctype.h", "cctype"},     {"errno.h", "cerrno"},
        {"float.h", "cfloat"},   {"inttypes.h", "cinttypes"}, {"limits.h", "climits"},
        {"locale.h", "clocale"}, {"math.h", "cmath"},       {"setjmp.h", "csetjmp"},
        {"signal.h", "csignal"}, {"stdarg.h", "cstdarg"},   {"stddef.h", "cstddef"},
        {"stdint.h", "cstdint"}, {"stdio.h", "cstdio"},     {"stdlib.h", "cstdlib"},
        {"string.h", "cstring"}, {"time.h", "ctime"},       {"wchar.h", "cwchar"},
    };
    return kMap;
}

bool isMetricName(const std::string& s) {
    // rc_ prefix, lower-case snake with digits, at least rc_x_y.
    if (s.rfind("rc_", 0) != 0 || s.size() < 6) return false;
    int segments = 0;
    std::size_t segLen = 0;
    for (std::size_t k = 3; k < s.size(); ++k) {
        const char c = s[k];
        if (c == '_') {
            if (segLen == 0) return false;
            ++segments;
            segLen = 0;
        } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) {
            ++segLen;
        } else {
            return false;
        }
    }
    if (segLen == 0) return false;
    return segments >= 1;  // two or more segments after rc_
}

// ---------------------------------------------------------------------------
// Per-file rules

void checkTokens(const std::string& path, const Lexed& lx, const Suppressions& sup,
                 std::vector<Finding>* out) {
    const auto& toks = lx.tokens;
    auto add = [&](int line, int col, const std::string& rule, const std::string& msg) {
        if (!suppressed(sup, line, rule)) out->push_back({path, line, col, rule, msg});
    };
    auto text = [&](std::size_t k) -> const std::string& {
        static const std::string kEmpty;
        return k < toks.size() ? toks[k].text : kEmpty;
    };

    for (std::size_t k = 0; k < toks.size(); ++k) {
        const Token& t = toks[k];
        if (t.kind != Token::Kind::Ident) continue;
        const std::string& prev = k > 0 ? toks[k - 1].text : text(toks.size());
        const std::string& next = text(k + 1);

        if (const BannedFn* b = bannedFn(t.text); b != nullptr && next == "(") {
            const bool member = prev == "." || prev == "->";
            const bool qualified = prev == "::";
            const bool stdQualified = qualified && k >= 2 && toks[k - 2].text == "std";
            if (!member && (!qualified || stdQualified)) {
                add(t.line, t.col, "banned-function",
                    std::string(b->name) + ": " + b->why);
            }
        }

        if (t.text == "new" && prev != "operator") {
            add(t.line, t.col, "banned-new-delete",
                "raw new: use std::make_unique, containers, or values");
        }
        if (t.text == "delete" && prev != "operator" && prev != "=") {
            add(t.line, t.col, "banned-new-delete",
                "raw delete: ownership belongs in RAII types");
        }

        // registry.counter("name", ...) — the literal must end in _total
        // (the registry throws at runtime; catch it at lint time).
        if (t.text == "counter" && prev == "." && next == "(" && k + 2 < toks.size() &&
            toks[k + 2].kind == Token::Kind::String) {
            const std::string& name = toks[k + 2].text;
            if (isMetricName(name) && !name.ends_with("_total")) {
                add(toks[k + 2].line, toks[k + 2].col, "metric-name",
                    "counter '" + name + "' must end in _total");
            }
        }
    }
}

void checkDirectives(const std::string& path, const Lexed& lx, const Suppressions& sup,
                     bool isHeader, std::vector<Finding>* out) {
    auto add = [&](int line, const std::string& rule, const std::string& msg) {
        if (!suppressed(sup, line, rule)) out->push_back({path, line, 1, rule, msg});
    };

    // pragma-once: headers start with `#pragma once`, exactly once, before
    // any other directive.
    if (isHeader) {
        int pragmaCount = 0;
        int firstDirectiveLine = 0;
        bool firstIsPragmaOnce = false;
        for (const DirectiveLine& d : lx.directives) {
            std::string norm;
            for (const char c : d.text) {
                if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                    if (!norm.empty() && norm.back() != ' ') norm += ' ';
                } else {
                    norm += c;
                }
            }
            const bool isPragmaOnce = norm == "pragma once";
            if (firstDirectiveLine == 0) {
                firstDirectiveLine = d.line;
                firstIsPragmaOnce = isPragmaOnce;
            }
            if (isPragmaOnce) {
                ++pragmaCount;
                if (pragmaCount == 2) {
                    add(d.line, "pragma-once", "duplicate #pragma once");
                }
            }
        }
        if (pragmaCount == 0) {
            add(firstDirectiveLine == 0 ? 1 : firstDirectiveLine, "pragma-once",
                "header is missing #pragma once");
        } else if (!firstIsPragmaOnce) {
            add(firstDirectiveLine, "pragma-once",
                "#pragma once must be the first preprocessing directive");
        }
    }

    // include-hygiene.
    std::set<std::string> seen;
    for (const DirectiveLine& d : lx.directives) {
        if (d.text.rfind("include", 0) != 0) continue;
        std::string spec = d.text.substr(7);
        const std::size_t b = spec.find_first_not_of(" \t");
        if (b == std::string::npos) continue;
        spec = spec.substr(b);
        // Trim a trailing comment, then trailing whitespace.
        const std::size_t cpos = std::min(spec.find("//"), spec.find("/*"));
        if (cpos != std::string::npos) spec = spec.substr(0, cpos);
        const std::size_t e = spec.find_last_not_of(" \t");
        spec = e == std::string::npos ? "" : spec.substr(0, e + 1);
        if (spec.size() < 2) continue;

        if (!seen.insert(spec).second) {
            add(d.line, "include-hygiene", "duplicate include " + spec);
        }
        const std::string inner = spec.substr(1, spec.size() - 2);
        if (spec[0] == '"' && inner.find("../") != std::string::npos) {
            add(d.line, "include-hygiene",
                "parent-relative include " + spec + ": include project-root-relative paths");
        }
        if (spec[0] == '<') {
            const auto it = cCompatHeaders().find(inner);
            if (it != cCompatHeaders().end()) {
                add(d.line, "include-hygiene",
                    "C-compat header <" + inner + ">: use <" + it->second + ">");
            }
        }
    }
}

void checkComments(const std::string& path, const Lexed& lx, const Suppressions& sup,
                   std::vector<Finding>* out) {
    auto add = [&](int line, int col, const std::string& msg) {
        if (!suppressed(sup, line, "todo-format")) {
            out->push_back({path, line, col, "todo-format", msg});
        }
    };
    const std::string kTodo = "TODO";
    const std::string kFixme = "FIXME";
    const std::string kXxx = "XXX";
    for (const CommentSpan& cs : lx.comments) {
        // Track line offsets inside multi-line block comments.
        auto lineAt = [&](std::size_t off) {
            int l = cs.line;
            for (std::size_t k = 0; k < off && k < cs.text.size(); ++k) {
                if (cs.text[k] == '\n') ++l;
            }
            return l;
        };
        auto isWordAt = [&](std::size_t pos, const std::string& word) {
            if (pos > 0 && isIdentChar(cs.text[pos - 1])) return false;
            const std::size_t end = pos + word.size();
            if (end < cs.text.size() && isIdentChar(cs.text[end])) return false;
            return true;
        };
        for (const std::string* word : {&kFixme, &kXxx}) {
            for (std::size_t pos = cs.text.find(*word); pos != std::string::npos;
                 pos = cs.text.find(*word, pos + 1)) {
                if (isWordAt(pos, *word)) {
                    add(lineAt(pos), cs.col, *word + ": use TODO(owner): instead");
                }
            }
        }
        for (std::size_t pos = cs.text.find(kTodo); pos != std::string::npos;
             pos = cs.text.find(kTodo, pos + 1)) {
            if (!isWordAt(pos, kTodo)) continue;
            // Must match TODO(owner): …
            std::size_t k = pos + kTodo.size();
            bool ok = false;
            if (k < cs.text.size() && cs.text[k] == '(') {
                const std::size_t close = cs.text.find(')', k);
                if (close != std::string::npos && close > k + 1 &&
                    close + 1 < cs.text.size() && cs.text[close + 1] == ':') {
                    ok = true;
                }
            }
            if (!ok) {
                add(lineAt(pos), cs.col, "malformed TODO: write TODO(owner): description");
            }
        }
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public interface

std::vector<Finding> lintLexed(const std::string& path, const Lexed& lx,
                               const Suppressions& sup, bool isHeader) {
    std::vector<Finding> out;
    checkTokens(path, lx, sup, &out);
    checkDirectives(path, lx, sup, isHeader, &out);
    checkComments(path, lx, sup, &out);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Finding> lintSource(const std::string& path, const std::string& source,
                                bool isHeader) {
    const Lexed lx = lex(source);
    const Suppressions sup = collectSuppressions(lx);
    return lintLexed(path, lx, sup, isHeader);
}

std::vector<MetricUse> collectMetricNames(const std::string& path, const Lexed& lx) {
    std::vector<MetricUse> out;
    for (const Token& t : lx.tokens) {
        if (t.kind == Token::Kind::String && isMetricName(t.text)) {
            out.push_back({path, t.line, t.col, t.text});
        }
    }
    return out;
}

std::vector<MetricUse> collectMetricNames(const std::string& path, const std::string& source) {
    return collectMetricNames(path, lex(source));
}

std::vector<std::pair<std::string, int>> docMetricNames(const std::string& docText) {
    std::vector<std::pair<std::string, int>> out;
    std::set<std::string> seen;
    int line = 1;
    std::size_t i = 0;
    while (i < docText.size()) {
        const char c = docText[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (c == '`') {
            const std::size_t close = docText.find('`', i + 1);
            if (close == std::string::npos) break;
            const std::string span = docText.substr(i + 1, close - i - 1);
            if (span.find('\n') == std::string::npos && isMetricName(span) &&
                seen.insert(span).second) {
                out.emplace_back(span, line);
            }
            i = close + 1;
            continue;
        }
        ++i;
    }
    return out;
}

std::vector<Finding> lintMetricDrift(const std::vector<MetricUse>& uses,
                                     const std::string& docPath, const std::string& docText) {
    std::vector<Finding> out;
    const auto docNames = docMetricNames(docText);
    std::set<std::string> documented;
    for (const auto& [name, line] : docNames) documented.insert(name);

    std::set<std::string> used;
    std::set<std::string> reported;
    for (const MetricUse& u : uses) {
        used.insert(u.name);
        if (documented.count(u.name) == 0 && reported.insert(u.name).second) {
            out.push_back({u.path, u.line, u.col, "metric-doc-drift",
                           "metric '" + u.name + "' is not catalogued in " + docPath});
        }
    }
    for (const auto& [name, line] : docNames) {
        if (used.count(name) == 0) {
            out.push_back({docPath, line, 1, "metric-doc-drift",
                           "documented metric '" + name + "' is never used in src/"});
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string renderFinding(const Finding& f, const std::string& format) {
    if (format == "github") {
        std::string escaped;
        for (const char c : f.message) {
            switch (c) {
                case '%': escaped += "%25"; break;
                case '\n': escaped += "%0A"; break;
                case '\r': escaped += "%0D"; break;
                default: escaped += c;
            }
        }
        return "::error file=" + f.path + ",line=" + std::to_string(f.line) +
               ",col=" + std::to_string(f.col) + ",title=rclint " + f.rule + "::" + escaped;
    }
    return f.path + ":" + std::to_string(f.line) + ":" + std::to_string(f.col) + ": [" +
           f.rule + "] " + f.message;
}

}  // namespace rclint
