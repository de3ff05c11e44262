// Visualizer: node-state evaluation for the Figure-6 scenarios, ASCII and
// SVG rendering.
#include "viz/prefix_tree_viz.hpp"

#include <gtest/gtest.h>

#include "util/errors.hpp"

namespace rpkic {
namespace {

using viz::NodeState;
using viz::PrefixTreeViz;
using viz::VizConfig;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

TEST(Viz, CaseStudy1Figure6Left) {
    // Figure 6(l): the ROA (173.251.0.0/17, max 24, AS 6128) appears; the
    // triangle rooted at the /17 transitions unknown -> invalid for other
    // ASes; feed routes inside it get black circles.
    const PrefixValidityIndex before{RpkiState{}};
    const PrefixValidityIndex after{RpkiState({{pfx("173.251.0.0/17"), 24, 6128}})};
    const std::vector<Route> feed = {
        {pfx("173.251.91.0/24"), 53725},
        {pfx("173.251.54.0/24"), 13599},
        {pfx("173.251.128.0/24"), 7018},  // outside the /17: stays unknown
    };
    const PrefixTreeViz viz(before, after,
                            VizConfig{pfx("173.251.0.0/16"), 8, 53725},
                            feed);

    EXPECT_EQ(viz.stateOf(pfx("173.251.0.0/17")), NodeState::DowngradedToInvalid);
    EXPECT_EQ(viz.stateOf(pfx("173.251.0.0/20")), NodeState::DowngradedToInvalid);
    EXPECT_EQ(viz.stateOf(pfx("173.251.128.0/17")), NodeState::Unknown);
    EXPECT_EQ(viz.stateOf(pfx("173.251.0.0/16")), NodeState::Unknown)
        << "the /16 itself is not covered by the /17 ROA";

    // Exactly half of each level below /17 is downgraded.
    std::size_t downgraded = viz.countState(NodeState::DowngradedToInvalid);
    std::uint64_t expected = 0;
    for (int level = 17; level <= 24; ++level) expected += 1ULL << (level - 17);
    EXPECT_EQ(downgraded, expected);

    ASSERT_EQ(viz.feedMarks().size(), 3u);
    EXPECT_EQ(viz.feedMarks()[0].stateAfter, RouteValidity::Invalid);
    EXPECT_EQ(viz.feedMarks()[2].stateAfter, RouteValidity::Unknown);
}

TEST(Viz, Figure6RightValidTriangleForOwnAs) {
    // Figure 6(r): adding the covering ROA (63.174.16.0/20, AS 17054).
    // From AS 17054's perspective the triangle is valid down to /24.
    const PrefixValidityIndex before{RpkiState({{pfx("63.174.16.0/24"), 24, 19817}})};
    const PrefixValidityIndex after{RpkiState({
        {pfx("63.174.16.0/24"), 24, 19817},
        {pfx("63.174.16.0/20"), 24, 17054},
    })};
    const PrefixTreeViz own(before, after, VizConfig{pfx("63.174.16.0/20"), 4, 17054});
    EXPECT_EQ(own.stateOf(pfx("63.174.16.0/20")), NodeState::Valid);
    EXPECT_EQ(own.stateOf(pfx("63.174.31.0/24")), NodeState::Valid);
    EXPECT_EQ(own.countState(NodeState::Unknown), 0u);

    // From the victim AS's perspective, previously-unknown space downgraded;
    // its own /24 stays valid.
    const PrefixTreeViz victim(before, after, VizConfig{pfx("63.174.16.0/20"), 4, 19817});
    EXPECT_EQ(victim.stateOf(pfx("63.174.16.0/24")), NodeState::Valid);
    EXPECT_EQ(victim.stateOf(pfx("63.174.17.0/24")), NodeState::DowngradedToInvalid);
    EXPECT_EQ(victim.stateOf(pfx("63.174.16.0/20")), NodeState::DowngradedToInvalid);
}

TEST(Viz, AsciiRenderShape) {
    const PrefixValidityIndex before{RpkiState{}};
    const PrefixValidityIndex after{RpkiState({{pfx("10.0.0.0/9"), 10, 1}})};
    const PrefixTreeViz viz(before, after, VizConfig{pfx("10.0.0.0/8"), 3, 1});
    const std::string art = viz.renderAscii();
    EXPECT_NE(art.find("prefix tree rooted at 10.0.0.0/8"), std::string::npos);
    EXPECT_NE(art.find("/8"), std::string::npos);
    EXPECT_NE(art.find("/11"), std::string::npos);
    EXPECT_NE(art.find('v'), std::string::npos);   // valid nodes for AS 1
    EXPECT_NE(art.find('!'), std::string::npos);   // downgraded at /11 level under the /9
    EXPECT_NE(art.find("legend"), std::string::npos);
    // 4 levels plus header and legend.
    EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 6);
}

TEST(Viz, SvgRenderContainsNodesAndLegend) {
    const PrefixValidityIndex before{RpkiState{}};
    const PrefixValidityIndex after{RpkiState({{pfx("10.0.0.0/9"), 9, 1}})};
    const PrefixTreeViz viz(before, after, VizConfig{pfx("10.0.0.0/8"), 4, 2});
    const std::string svg = viz.renderSvg();
    EXPECT_EQ(svg.rfind("<svg", 0), 0u);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    // 2^5 - 1 = 31 tree nodes + 4 legend circles.
    EXPECT_EQ(std::count(svg.begin(), svg.end(), '\n') > 30, true);
    EXPECT_NE(svg.find("#e4572e"), std::string::npos);  // downgraded color present
    EXPECT_NE(svg.find("downgraded"), std::string::npos);
}

TEST(Viz, GuardsAgainstAbsurdDepth) {
    const PrefixValidityIndex idx{RpkiState{}};
    EXPECT_THROW(PrefixTreeViz(idx, idx, VizConfig{pfx("10.0.0.0/8"), 30, 1}), UsageError);
    EXPECT_THROW(PrefixTreeViz(idx, idx, VizConfig{pfx("10.0.0.0/30"), 5, 1}), UsageError);
    EXPECT_THROW(PrefixTreeViz(idx, idx, VizConfig{pfx("10.0.0.0/8"), -1, 1}), UsageError);
}

TEST(Viz, StateLookupGuards) {
    const PrefixValidityIndex idx{RpkiState{}};
    const PrefixTreeViz viz(idx, idx, VizConfig{pfx("10.0.0.0/8"), 4, 1});
    EXPECT_THROW((void)viz.stateOf(pfx("11.0.0.0/9")), UsageError);
    EXPECT_THROW((void)viz.stateOf(pfx("10.0.0.0/24")), UsageError);
}

}  // namespace
}  // namespace rpkic
