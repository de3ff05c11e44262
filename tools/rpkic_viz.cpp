// rpkic-viz: the paper's §4.2 visualizer as a command-line tool. Renders
// the binary prefix tree under a root prefix, colored by the validity
// transition between two RPKI states for a focus AS, as SVG (file) and
// ASCII (stdout).
//
//   rpkic-viz PREV.state CUR.state --root 173.251.0.0/16 --as 53725
//             [--depth 8] [--svg out.svg] [--feed FEED.state]
//
// The optional --feed file lists BGP-announced routes ("prefix ASN" lines)
// to overlay: grey circles for valid routes, black for invalid ones.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "detector/state_io.hpp"
#include "util/errors.hpp"
#include "util/parse.hpp"
#include "viz/prefix_tree_viz.hpp"

using namespace rpkic;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: rpkic-viz PREV.state CUR.state --root PREFIX --as ASN\n"
                 "                 [--depth N] [--svg FILE] [--feed FEED.state]\n");
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string prevPath;
    std::string curPath;
    std::optional<IpPrefix> root;
    Asn focusAs = 0;
    int depth = 8;
    std::string svgPath;
    std::string feedPath;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--root" && i + 1 < argc) {
                root = IpPrefix::parse(argv[++i]);
            } else if (arg == "--as" && i + 1 < argc) {
                focusAs = parseU32(argv[++i], "--as");
            } else if (arg == "--depth" && i + 1 < argc) {
                depth = static_cast<int>(parseU32(argv[++i], "--depth"));
            } else if (arg == "--svg" && i + 1 < argc) {
                svgPath = argv[++i];
            } else if (arg == "--feed" && i + 1 < argc) {
                feedPath = argv[++i];
            } else if (prevPath.empty()) {
                prevPath = arg;
            } else if (curPath.empty()) {
                curPath = arg;
            } else {
                return usage();
            }
        }
        if (prevPath.empty() || curPath.empty() || !root.has_value() || focusAs == 0) {
            return usage();
        }

        const PrefixValidityIndex prev(loadStateFile(prevPath));
        const PrefixValidityIndex cur(loadStateFile(curPath));
        std::vector<Route> feed;
        if (!feedPath.empty()) {
            const RpkiState feedState = loadStateFile(feedPath);
            for (const auto& t : feedState.tuples()) {
                feed.push_back(t.announcedRoute());
            }
        }

        const viz::PrefixTreeViz viz(prev, cur, viz::VizConfig{*root, depth, focusAs}, feed);
        std::printf("%s", viz.renderAscii().c_str());
        std::printf("\nnode states: %zu unknown, %zu valid, %zu invalid, %zu downgraded\n",
                    viz.countState(viz::NodeState::Unknown),
                    viz.countState(viz::NodeState::Valid),
                    viz.countState(viz::NodeState::Invalid),
                    viz.countState(viz::NodeState::DowngradedToInvalid));
        if (!svgPath.empty()) {
            std::ofstream out(svgPath);
            if (!out) throw Error("cannot write " + svgPath);
            out << viz.renderSvg();
            std::printf("wrote %s\n", svgPath.c_str());
        }
        return 0;
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-viz: %s\n", e.what());
        return 1;
    }
}
