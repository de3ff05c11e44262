// rpkic-validate: rcynic-style validation of an on-disk repository.
//
//   rpkic-validate REPO_DIR --ta TA_FILE [--ta TA_FILE...]
//                  [--now T] [--lenient] [--out STATE_FILE]
//
// Walks the repository from the trust anchor(s), reports every problem
// (whacked objects, stale manifests, coverage violations, ...), and writes
// the resulting set of valid ROAs as a .state file — the input format of
// rpkic-detector and rpkic-viz, closing the monitoring pipeline:
//
//   rpkic-validate repo/ --ta ta.cer --out today.state
//   rpkic-detector yesterday.state today.state
//
// Exit status: 0 = clean, 2 = problems found, 1 = usage/IO error.
#include <cstdio>
#include <string>
#include <vector>

#include "detector/state_io.hpp"
#include "rpki/fs_repository.hpp"
#include "util/errors.hpp"
#include "util/parse.hpp"
#include "vanilla/validation.hpp"

using namespace rpkic;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: rpkic-validate REPO_DIR --ta TA_FILE [--ta ...]\n"
                 "                      [--now T] [--lenient] [--out STATE_FILE]\n");
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string repoDir;
    std::vector<std::string> taPaths;
    std::string outPath;
    Time now = 0;
    bool lenient = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--ta" && i + 1 < argc) {
                taPaths.push_back(argv[++i]);
            } else if (arg == "--out" && i + 1 < argc) {
                outPath = argv[++i];
            } else if (arg == "--now" && i + 1 < argc) {
                now = parseU32(argv[++i], "--now");
            } else if (arg == "--lenient") {
                lenient = true;
            } else if (repoDir.empty()) {
                repoDir = arg;
            } else {
                return usage();
            }
        }
    } catch (const ParseError& e) {
        std::fprintf(stderr, "rpkic-validate: %s\n", e.what());
        return 1;
    }
    if (repoDir.empty() || taPaths.empty()) return usage();

    try {
        const Snapshot snap = readSnapshotFromDisk(repoDir);
        std::vector<ResourceCert> tas;
        for (const auto& path : taPaths) tas.push_back(readTrustAnchorFile(path));

        const vanilla::Result result = vanilla::validateSnapshot(
            snap, tas, vanilla::Options{.now = now, .staleManifestIsFatal = !lenient});

        std::printf("repository: %zu publication points, %zu files\n", snap.points.size(),
                    snap.totalFiles());
        std::printf("valid: %zu certificates, %zu ROAs\n", result.certs.size(),
                    result.roas.size());
        for (const auto& problem : result.problems) {
            std::printf("PROBLEM %s\n", problem.str().c_str());
        }

        const RpkiState state = result.roaState();
        if (!outPath.empty()) {
            saveStateFile(outPath, state);
            std::printf("wrote %zu ROA tuples to %s\n", state.size(), outPath.c_str());
        } else {
            std::fputs(stateToText(state).c_str(), stdout);
        }
        return result.problems.empty() ? 0 : 2;
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-validate: %s\n", e.what());
        return 1;
    }
}
