#include "graph.hpp"

#include <algorithm>
#include <charconv>
#include <set>
#include <sstream>

namespace rclint {

namespace {

std::vector<std::string> splitWords(const std::string& s) {
    std::vector<std::string> out;
    std::istringstream ss(s);
    std::string w;
    while (ss >> w) out.push_back(w);
    return out;
}

/// True when `path` lies under directory prefix `prefix`, treating the
/// prefix as whole path segments: "src/util" matches "src/util/x.hpp" and
/// "/repo/src/util/x.hpp" but not "src/utility/x.hpp".
bool underPrefix(const std::string& path, const std::string& prefix) {
    if (path.rfind(prefix + "/", 0) == 0 || path == prefix) return true;
    return path.find("/" + prefix + "/") != std::string::npos;
}

bool fileSuppressed(const std::map<std::string, const Suppressions*>& fileSup,
                    const std::string& path, int line, const std::string& rule) {
    const auto it = fileSup.find(path);
    return it != fileSup.end() && it->second != nullptr && suppressed(*it->second, line, rule);
}

std::string dirname(const std::string& p) {
    const std::size_t pos = p.find_last_of('/');
    return pos == std::string::npos ? "" : p.substr(0, pos);
}

}  // namespace

bool parseLayerManifest(const std::string& text, LayerManifest* out, std::string* err) {
    std::istringstream in(text);
    std::string rawLine;
    int lineNo = 0;
    while (std::getline(in, rawLine)) {
        ++lineNo;
        std::string line = rawLine;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos) line = line.substr(0, hash);
        // `layer 2: ip obs` / `module util: src/util` — the colon is
        // optional decoration.
        std::replace(line.begin(), line.end(), ':', ' ');
        std::vector<std::string> words = splitWords(line);
        if (words.empty()) continue;
        if (words[0] == "layer") {
            if (words.size() < 3) {
                *err = "layers.conf:" + std::to_string(lineNo) +
                       ": expected `layer <rank> <module>...`";
                return false;
            }
            int rank = 0;
            const char* end = words[1].data() + words[1].size();
            const auto [stop, ec] = std::from_chars(words[1].data(), end, rank);
            if (ec != std::errc() || stop != end) {
                *err = "layers.conf:" + std::to_string(lineNo) + ": bad rank '" + words[1] + "'";
                return false;
            }
            for (std::size_t k = 2; k < words.size(); ++k) out->rankOf[words[k]] = rank;
        } else if (words[0] == "module") {
            if (words.size() < 3) {
                *err = "layers.conf:" + std::to_string(lineNo) +
                       ": expected `module <name> <dir-prefix>...`";
                return false;
            }
            for (std::size_t k = 2; k < words.size(); ++k) {
                out->prefixesOf[words[1]].push_back(words[k]);
            }
        } else {
            *err = "layers.conf:" + std::to_string(lineNo) + ": unknown directive '" +
                   words[0] + "'";
            return false;
        }
    }
    for (const auto& [name, prefixes] : out->prefixesOf) {
        if (out->rankOf.count(name) == 0) {
            *err = "layers.conf: module '" + name + "' has no layer rank";
            return false;
        }
    }
    return true;
}

std::string moduleOf(const LayerManifest& m, const std::string& path) {
    std::string best;
    std::size_t bestLen = 0;
    for (const auto& [name, prefixes] : m.prefixesOf) {
        for (const std::string& prefix : prefixes) {
            if (prefix.size() > bestLen && underPrefix(path, prefix)) {
                best = name;
                bestLen = prefix.size();
            }
        }
    }
    return best;
}

std::vector<Finding> checkLayering(const LayerManifest& m, const std::vector<IncludeEdge>& edges,
                                   const std::map<std::string, const Suppressions*>& fileSup) {
    std::vector<Finding> out;
    for (const IncludeEdge& e : edges) {
        const std::string fromMod = moduleOf(m, e.from);
        const std::string toMod = moduleOf(m, e.to);
        if (fromMod.empty() || toMod.empty() || fromMod == toMod) continue;
        const int fromRank = m.rankOf.at(fromMod);
        const int toRank = m.rankOf.at(toMod);
        if (toRank <= fromRank) continue;
        if (fileSuppressed(fileSup, e.from, e.line, "layer-violation")) continue;
        out.push_back({e.from, e.line, 1, "layer-violation",
                       "module '" + fromMod + "' (layer " + std::to_string(fromRank) +
                           ") must not include '" + toMod + "' (layer " +
                           std::to_string(toRank) + "): " + e.to});
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Finding> checkIncludeCycles(const std::vector<IncludeEdge>& edges,
                                        const std::map<std::string, const Suppressions*>& fileSup) {
    // Edge map with first-in-sorted-order anchors.
    std::map<std::pair<std::string, std::string>, int> edgeLine;
    std::map<std::string, std::vector<std::string>> adj;
    std::set<std::string> nodes;
    for (const IncludeEdge& e : edges) {
        if (edgeLine.emplace(std::make_pair(e.from, e.to), e.line).second) {
            adj[e.from].push_back(e.to);
        }
        nodes.insert(e.from);
        nodes.insert(e.to);
    }
    for (auto& [from, tos] : adj) std::sort(tos.begin(), tos.end());

    std::vector<Finding> out;
    std::map<std::string, int> color;
    std::set<std::set<std::string>> reported;
    for (const std::string& start : nodes) {
        if (color[start] != 0) continue;
        std::vector<std::pair<std::string, std::size_t>> stack{{start, 0}};
        std::vector<std::string> pathStack{start};
        color[start] = 1;
        while (!stack.empty()) {
            auto& [node, childIdx] = stack.back();
            const auto& children = adj[node];
            if (childIdx >= children.size()) {
                color[node] = 2;
                stack.pop_back();
                pathStack.pop_back();
                continue;
            }
            const std::string next = children[childIdx++];
            if (color[next] == 1) {
                const auto it = std::find(pathStack.begin(), pathStack.end(), next);
                std::vector<std::string> cycle(it, pathStack.end());
                std::set<std::string> keySet(cycle.begin(), cycle.end());
                if (reported.insert(keySet).second) {
                    const auto minIt = std::min_element(cycle.begin(), cycle.end());
                    std::rotate(cycle.begin(), minIt, cycle.end());
                    std::string desc;
                    for (const std::string& f : cycle) desc += f + " -> ";
                    desc += cycle.front();
                    const std::string& anchor = cycle.front();
                    const std::string& target = cycle.size() > 1 ? cycle[1] : cycle.front();
                    const int line = edgeLine.at({anchor, target});
                    if (!fileSuppressed(fileSup, anchor, line, "include-cycle")) {
                        out.push_back({anchor, line, 1, "include-cycle",
                                       "include cycle: " + desc});
                    }
                }
            } else if (color[next] == 0) {
                color[next] = 1;
                stack.emplace_back(next, 0);
                pathStack.push_back(next);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string renderIncludeGraphDot(const std::vector<std::string>& files,
                                  const std::vector<IncludeEdge>& edges,
                                  const LayerManifest* manifest) {
    // Shorten node labels by the longest common directory prefix.
    std::string common;
    for (const std::string& f : files) {
        const std::string dir = dirname(f) + "/";
        if (common.empty()) {
            common = dir;
        } else {
            std::size_t k = 0;
            while (k < common.size() && k < dir.size() && common[k] == dir[k]) ++k;
            // Back off to a directory boundary.
            while (k > 0 && common[k - 1] != '/') --k;
            common = common.substr(0, k);
        }
    }
    auto shorten = [&](const std::string& p) {
        return p.rfind(common, 0) == 0 ? p.substr(common.size()) : p;
    };

    std::ostringstream dot;
    dot << "// generated by rclint --graph-out; render with `dot -Tsvg`\n";
    dot << "digraph includes {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";

    std::vector<std::string> sorted = files;
    std::sort(sorted.begin(), sorted.end());
    if (manifest != nullptr && !manifest->empty()) {
        std::map<std::string, std::vector<std::string>> byModule;
        for (const std::string& f : sorted) byModule[moduleOf(*manifest, f)].push_back(f);
        for (const auto& [mod, members] : byModule) {
            if (mod.empty()) continue;
            dot << "  subgraph cluster_" << mod << " {\n    label=\"" << mod << " (layer "
                << manifest->rankOf.at(mod) << ")\";\n";
            for (const std::string& f : members) dot << "    \"" << shorten(f) << "\";\n";
            dot << "  }\n";
        }
        for (const std::string& f : byModule[""]) dot << "  \"" << shorten(f) << "\";\n";
    } else {
        for (const std::string& f : sorted) dot << "  \"" << shorten(f) << "\";\n";
    }

    std::vector<std::pair<std::string, std::string>> uniq;
    for (const IncludeEdge& e : edges) uniq.emplace_back(shorten(e.from), shorten(e.to));
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const auto& [from, to] : uniq) {
        dot << "  \"" << from << "\" -> \"" << to << "\";\n";
    }
    dot << "}\n";
    return dot.str();
}

}  // namespace rclint
