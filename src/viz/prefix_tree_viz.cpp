#include "viz/prefix_tree_viz.hpp"

#include <algorithm>
#include <cstdio>

#include "util/errors.hpp"

namespace rpkic::viz {

std::string_view toString(NodeState s) {
    switch (s) {
        case NodeState::Unknown: return "unknown";
        case NodeState::Valid: return "valid";
        case NodeState::Invalid: return "invalid";
        case NodeState::DowngradedToInvalid: return "downgraded";
    }
    return "?";
}

namespace {

/// Prefix of the node at (level, position) under `root`.
IpPrefix nodePrefix(const IpPrefix& root, int level, std::uint64_t position) {
    const int len = root.length + level;
    const U128 offset = U128{0, position} << (root.bits() - len);
    IpPrefix p = root;
    p.addr = root.firstAddress() | offset;
    p.length = static_cast<std::uint8_t>(len);
    return p;
}

}  // namespace

PrefixTreeViz::PrefixTreeViz(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur,
                             VizConfig config, std::span<const Route> bgpFeed)
    : config_(config) {
    if (config_.depth < 0) throw UsageError("viz depth is negative");
    if (config_.root.length + config_.depth > config_.root.bits()) {
        throw UsageError("viz depth exceeds address width");
    }
    if (config_.depth > 12) {
        throw UsageError("viz depth > 12 would draw more than 8191 nodes");
    }
    std::size_t total = 0;
    for (int level = 0; level <= config_.depth; ++level) total += (std::size_t{1} << level);
    states_.reserve(total);

    for (int level = 0; level <= config_.depth; ++level) {
        const std::uint64_t width = 1ULL << level;
        for (std::uint64_t pos = 0; pos < width; ++pos) {
            const IpPrefix p = nodePrefix(config_.root, level, pos);
            const Route route{p, config_.focusAs};
            const RouteValidity before = prev.classify(route);
            const RouteValidity after = cur.classify(route);
            NodeState state = NodeState::Unknown;
            if (after == RouteValidity::Valid) {
                state = NodeState::Valid;
            } else if (after == RouteValidity::Invalid) {
                state = (before == RouteValidity::Invalid) ? NodeState::Invalid
                                                           : NodeState::DowngradedToInvalid;
            }
            states_.push_back(state);
        }
    }

    for (const Route& r : bgpFeed) {
        if (!config_.root.covers(r.prefix)) continue;
        if (r.prefix.length > config_.root.length + config_.depth) continue;
        feedMarks_.push_back({r.prefix, r.origin, cur.classify(r)});
    }
}

std::size_t PrefixTreeViz::indexOf(const IpPrefix& prefix) const {
    if (!config_.root.covers(prefix)) throw UsageError("prefix outside visualized subtree");
    const int level = prefix.length - config_.root.length;
    if (level > config_.depth) throw UsageError("prefix below visualized depth");
    const U128 offset = (prefix.firstAddress() - config_.root.firstAddress()) >>
                        (prefix.bits() - prefix.length);
    std::size_t base = 0;
    for (int l = 0; l < level; ++l) base += (std::size_t{1} << l);
    return base + static_cast<std::size_t>(offset.toU64());
}

NodeState PrefixTreeViz::stateOf(const IpPrefix& prefix) const {
    return states_.at(indexOf(prefix));
}

std::size_t PrefixTreeViz::countState(NodeState s) const {
    return static_cast<std::size_t>(std::count(states_.begin(), states_.end(), s));
}

std::string PrefixTreeViz::renderAscii() const {
    std::string out;
    out += "prefix tree rooted at " + config_.root.str() + " (AS" +
           std::to_string(config_.focusAs) + ")\n";
    std::size_t cursor = 0;
    const std::uint64_t bottomWidth = 1ULL << config_.depth;
    for (int level = 0; level <= config_.depth; ++level) {
        const std::uint64_t width = 1ULL << level;
        const std::uint64_t stride = bottomWidth / width;
        char lenLabel[16];
        std::snprintf(lenLabel, sizeof lenLabel, "/%-3d ", config_.root.length + level);
        out += lenLabel;
        std::string row(bottomWidth, ' ');
        for (std::uint64_t pos = 0; pos < width; ++pos) {
            char c = '.';
            switch (states_[cursor++]) {
                case NodeState::Unknown: c = '.'; break;
                case NodeState::Valid: c = 'v'; break;
                case NodeState::Invalid: c = 'x'; break;
                case NodeState::DowngradedToInvalid: c = '!'; break;
            }
            row[pos * stride + stride / 2] = c;
        }
        out += row;
        out += '\n';
    }
    out += "      legend: . unknown   v valid   x invalid   ! downgraded to invalid\n";
    return out;
}

std::string PrefixTreeViz::renderSvg() const {
    const int nodeGap = 14;
    const std::uint64_t bottomWidth = 1ULL << config_.depth;
    const int width = static_cast<int>(bottomWidth) * nodeGap + 120;
    const int levelGap = 46;
    const int height = (config_.depth + 1) * levelGap + 70;

    std::string svg;
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" "
                  "viewBox=\"0 0 %d %d\">\n",
                  width, height, width, height);
    svg += buf;
    svg += "<rect width=\"100%\" height=\"100%\" fill=\"#ffffff\"/>\n";
    std::snprintf(buf, sizeof buf,
                  "<text x=\"%d\" y=\"22\" font-family=\"sans-serif\" font-size=\"14\">"
                  "Prefix tree rooted at %s, validity for AS%u</text>\n",
                  20, config_.root.str().c_str(), config_.focusAs);
    svg += buf;

    auto nodeCenter = [&](int level, std::uint64_t pos) {
        const std::uint64_t widthAt = 1ULL << level;
        const double cellWidth = static_cast<double>(bottomWidth) * nodeGap /
                                 static_cast<double>(widthAt);
        const double x = 80.0 + (static_cast<double>(pos) + 0.5) * cellWidth;
        const double y = 50.0 + level * levelGap;
        return std::pair<double, double>(x, y);
    };

    // Edges first (underneath the nodes).
    svg += "<g stroke=\"#cccccc\" stroke-width=\"1\">\n";
    for (int level = 0; level < config_.depth; ++level) {
        const std::uint64_t widthAt = 1ULL << level;
        for (std::uint64_t pos = 0; pos < widthAt; ++pos) {
            const auto [x0, y0] = nodeCenter(level, pos);
            for (int bit = 0; bit < 2; ++bit) {
                const auto [x1, y1] = nodeCenter(level + 1, pos * 2 + bit);
                std::snprintf(buf, sizeof buf,
                              "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>\n", x0, y0,
                              x1, y1);
                svg += buf;
            }
        }
    }
    svg += "</g>\n";

    // Nodes colored by state.
    std::size_t cursor = 0;
    for (int level = 0; level <= config_.depth; ++level) {
        const std::uint64_t widthAt = 1ULL << level;
        for (std::uint64_t pos = 0; pos < widthAt; ++pos) {
            const auto [x, y] = nodeCenter(level, pos);
            const char* fill = "#f4f4f4";  // unknown
            switch (states_[cursor++]) {
                case NodeState::Unknown: fill = "#f4f4f4"; break;
                case NodeState::Valid: fill = "#7bd389"; break;
                case NodeState::Invalid: fill = "#4a4a4a"; break;
                case NodeState::DowngradedToInvalid: fill = "#e4572e"; break;
            }
            std::snprintf(buf, sizeof buf,
                          "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"4.5\" fill=\"%s\" "
                          "stroke=\"#888888\" stroke-width=\"0.4\"/>\n",
                          x, y, fill);
            svg += buf;
        }
    }

    // BGP feed marks: grey circle = valid route, black = invalid route.
    for (const FeedMark& mark : feedMarks_) {
        const int level = mark.prefix.length - config_.root.length;
        const U128 offset = (mark.prefix.firstAddress() - config_.root.firstAddress()) >>
                            (mark.prefix.bits() - mark.prefix.length);
        const auto [x, y] = nodeCenter(level, offset.toU64());
        const char* stroke = mark.stateAfter == RouteValidity::Invalid ? "#000000" : "#999999";
        std::snprintf(buf, sizeof buf,
                      "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"8\" fill=\"none\" stroke=\"%s\" "
                      "stroke-width=\"2\"><title>%s AS%u (%s)</title></circle>\n",
                      x, y, stroke, mark.prefix.str().c_str(), mark.origin,
                      std::string(toString(mark.stateAfter)).c_str());
        svg += buf;
    }

    // Legend.
    const int ly = height - 24;
    std::snprintf(buf, sizeof buf,
                  "<g font-family=\"sans-serif\" font-size=\"12\">"
                  "<circle cx=\"90\" cy=\"%d\" r=\"5\" fill=\"#f4f4f4\" stroke=\"#888\"/>"
                  "<text x=\"100\" y=\"%d\">unknown</text>"
                  "<circle cx=\"190\" cy=\"%d\" r=\"5\" fill=\"#7bd389\"/>"
                  "<text x=\"200\" y=\"%d\">valid</text>"
                  "<circle cx=\"270\" cy=\"%d\" r=\"5\" fill=\"#4a4a4a\"/>"
                  "<text x=\"280\" y=\"%d\">invalid</text>"
                  "<circle cx=\"360\" cy=\"%d\" r=\"5\" fill=\"#e4572e\"/>"
                  "<text x=\"370\" y=\"%d\">downgraded</text></g>\n",
                  ly, ly + 4, ly, ly + 4, ly, ly + 4, ly, ly + 4);
    svg += buf;
    svg += "</svg>\n";
    return svg;
}

}  // namespace rpkic::viz
