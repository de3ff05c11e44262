// The rclint command line: argument parsing and the orchestration of the
// whole-tree pipeline (tree.hpp). Kept apart from the analyses so the
// golden tests can drive the exact CLI in-process through runCli.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph.hpp"
#include "lint.hpp"
#include "lockorder.hpp"
#include "nondet.hpp"
#include "tree.hpp"

namespace rclint {

namespace {

bool underSrc(const std::string& path) {
    return path == "src" || path.rfind("src/", 0) == 0 || path.find("/src/") != std::string::npos;
}

bool readFile(const std::string& path, std::string* out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

struct Options {
    std::string format = "text";
    std::string metricsDoc;
    std::string layersPath;
    std::string graphOut;
    std::string benchJson;
    double benchBudgetMs = 0.0;  // 0: no budget
    int threads = 0;             // 0: hardware concurrency
    bool metricCheck = true;
    std::vector<std::string> paths;
};

/// Everything one full tree analysis produces. Rendered output is built
/// from this alone, so two results with equal fields render identically —
/// the property the --bench-json self-check asserts across thread counts.
struct TreeResult {
    std::vector<std::string> files;
    std::vector<Finding> findings;
    std::vector<IncludeEdge> edges;
    std::string error;  // non-empty: I/O failure, exit 2
};

TreeResult analyzeTree(const Options& opt, const LayerManifest* manifest, int threads) {
    TreeResult res;
    if (!collectFiles(opt.paths, &res.files, &res.error)) return res;

    std::vector<FileUnit> units = loadUnits(res.files, threads);
    for (const FileUnit& u : units) {
        if (!u.error.empty()) {
            res.error = u.error;
            return res;
        }
    }

    std::vector<MetricUse> metricUses;
    std::map<std::string, const Suppressions*> fileSup;
    for (const FileUnit& u : units) {
        res.findings.insert(res.findings.end(), u.findings.begin(), u.findings.end());
        if (opt.metricCheck && underSrc(u.path)) {
            metricUses.insert(metricUses.end(), u.metrics.begin(), u.metrics.end());
        }
        fileSup[u.path] = &u.sup;
    }

    if (opt.metricCheck && !opt.metricsDoc.empty()) {
        std::string docText;
        if (!readFile(opt.metricsDoc, &docText)) {
            res.error = "cannot read metrics doc '" + opt.metricsDoc + "'";
            return res;
        }
        std::vector<Finding> drift = lintMetricDrift(metricUses, opt.metricsDoc, docText);
        res.findings.insert(res.findings.end(), drift.begin(), drift.end());
    }

    // Cross-file analyses over the resolved include graph.
    res.edges = resolveIncludes(units);
    {
        std::vector<Finding> cyc = checkIncludeCycles(res.edges, fileSup);
        res.findings.insert(res.findings.end(), cyc.begin(), cyc.end());
    }
    if (manifest != nullptr && !manifest->empty()) {
        std::vector<Finding> lay = checkLayering(*manifest, res.edges, fileSup);
        res.findings.insert(res.findings.end(), lay.begin(), lay.end());
    }

    // Determinism lint: each file sees unordered declarations from its own
    // text plus every transitively included scanned header.
    const auto closure = unorderedClosure(units, res.edges);
    for (const FileUnit& u : units) {
        const auto it = closure.find(u.path);
        static const std::vector<std::string> kNone;
        checkNondetIteration(u.path, u.nondet, it == closure.end() ? kNone : it->second, u.sup,
                             &res.findings);
    }

    // Lock-order: merge every file's nested-guard edges into one graph.
    std::vector<LockEdge> lockEdges;
    for (const FileUnit& u : units) {
        lockEdges.insert(lockEdges.end(), u.lockEdges.begin(), u.lockEdges.end());
    }
    {
        std::vector<Finding> lo = checkLockOrder(lockEdges);
        res.findings.insert(res.findings.end(), lo.begin(), lo.end());
    }

    std::sort(res.findings.begin(), res.findings.end());
    return res;
}

std::string renderResult(const TreeResult& res, const std::string& format) {
    std::ostringstream out;
    for (const Finding& f : res.findings) {
        out << renderFinding(f, format) << "\n";
    }
    if (!res.findings.empty()) {
        out << "rclint: " << res.findings.size() << " finding"
            << (res.findings.size() == 1 ? "" : "s") << " in " << res.files.size() << " files\n";
    }
    return out.str();
}

int exitCode(const TreeResult& res) {
    if (res.findings.empty()) return 0;
    for (const Finding& f : res.findings) {
        // A potential deadlock is a harder failure than a style finding.
        if (f.rule == "lock-order") return 2;
    }
    return 1;
}

double msSince(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int runCli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
    Options opt;

    auto takeValue = [&](const std::string& a, const std::string& flag, std::size_t* i,
                         std::string* value) {
        if (a == flag) {
            if (*i + 1 >= args.size()) {
                err << "rclint: " << flag << " needs a value\n";
                return 2;
            }
            *value = args[++*i];
            return 1;
        }
        if (a.rfind(flag + "=", 0) == 0) {
            *value = a.substr(flag.size() + 1);
            return 1;
        }
        return 0;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& a = args[i];
        if (a == "--help" || a == "-h") {
            out << "usage: rclint [--format=text|github] [--metrics-doc PATH]\n"
                   "              [--layers PATH] [--graph-out PATH] [--threads N]\n"
                   "              [--bench-json PATH] [--bench-budget-ms N]\n"
                   "              [--no-metric-check] [--list-rules] PATH...\n"
                   "Lints .cpp/.hpp files (directories are walked recursively).\n"
                   "Exit: 0 clean, 1 findings, 2 usage/IO error or lock-order cycle.\n";
            return 0;
        }
        if (a == "--list-rules") {
            out << "banned-function    strcpy/strcat/sprintf/vsprintf/gets/rand/srand\n"
                   "banned-new-delete  raw new/delete outside RAII types\n"
                   "pragma-once        headers start with #pragma once, exactly once\n"
                   "include-hygiene    duplicate/parent-relative/C-compat includes\n"
                   "todo-format        TODO(owner): description; FIXME/XXX banned\n"
                   "metric-name        counter literals must end in _total\n"
                   "metric-doc-drift   rc_* literals in src/ <-> docs catalogue\n"
                   "layer-violation    include crosses the --layers manifest upward\n"
                   "include-cycle      cycle in the quoted-include graph\n"
                   "nondet-iteration   unordered iteration in a serializing TU\n"
                   "nondet-time        system_clock/time()/clock() wall-clock reads\n"
                   "nondet-pointer-order  ordering or hashing raw pointers\n"
                   "lock-order         cycle in the LockGuard nesting graph (exit 2)\n";
            return 0;
        }
        if (a.rfind("--format=", 0) == 0) {
            opt.format = a.substr(9);
            if (opt.format != "text" && opt.format != "github") {
                err << "rclint: unknown format '" << opt.format << "'\n";
                return 2;
            }
            continue;
        }
        int r = takeValue(a, "--metrics-doc", &i, &opt.metricsDoc);
        if (r == 2) return 2;
        if (r == 1) continue;
        r = takeValue(a, "--layers", &i, &opt.layersPath);
        if (r == 2) return 2;
        if (r == 1) continue;
        r = takeValue(a, "--graph-out", &i, &opt.graphOut);
        if (r == 2) return 2;
        if (r == 1) continue;
        r = takeValue(a, "--bench-json", &i, &opt.benchJson);
        if (r == 2) return 2;
        if (r == 1) continue;
        std::string num;
        r = takeValue(a, "--threads", &i, &num);
        if (r == 2) return 2;
        if (r == 1) {
            const char* end = num.data() + num.size();
            const auto [stop, ec] = std::from_chars(num.data(), end, opt.threads);
            if (ec != std::errc() || stop != end || opt.threads < 1) {
                err << "rclint: --threads needs a positive integer\n";
                return 2;
            }
            continue;
        }
        r = takeValue(a, "--bench-budget-ms", &i, &num);
        if (r == 2) return 2;
        if (r == 1) {
            try {
                opt.benchBudgetMs = std::stod(num);
            } catch (...) {
                opt.benchBudgetMs = -1.0;
            }
            if (opt.benchBudgetMs <= 0.0) {
                err << "rclint: --bench-budget-ms needs a positive number\n";
                return 2;
            }
            continue;
        }
        if (a == "--no-metric-check") {
            opt.metricCheck = false;
            continue;
        }
        if (a.rfind("--", 0) == 0) {
            err << "rclint: unknown option '" << a << "'\n";
            return 2;
        }
        opt.paths.push_back(a);
    }

    if (opt.paths.empty()) {
        err << "rclint: no input paths (try --help)\n";
        return 2;
    }

    LayerManifest manifest;
    if (!opt.layersPath.empty()) {
        std::string text;
        if (!readFile(opt.layersPath, &text)) {
            err << "rclint: cannot read layer manifest '" << opt.layersPath << "'\n";
            return 2;
        }
        std::string perr;
        if (!parseLayerManifest(text, &manifest, &perr)) {
            err << "rclint: " << perr << "\n";
            return 2;
        }
    }

    const unsigned hw = std::thread::hardware_concurrency();
    const int defaultThreads = hw == 0 ? 1 : static_cast<int>(hw);
    const int threads = opt.threads > 0 ? opt.threads : defaultThreads;

    TreeResult res;
    if (!opt.benchJson.empty()) {
        // Bench guard: run the identical analysis sequentially and fanned
        // out, assert byte-identical renderings, and record both timings.
        const auto t0 = std::chrono::steady_clock::now();
        const TreeResult seq = analyzeTree(opt, &manifest, 1);
        const double seqMs = msSince(t0);
        if (!seq.error.empty()) {
            err << "rclint: " << seq.error << "\n";
            return 2;
        }
        const auto t1 = std::chrono::steady_clock::now();
        res = analyzeTree(opt, &manifest, threads);
        const double thrMs = msSince(t1);
        if (!res.error.empty()) {
            err << "rclint: " << res.error << "\n";
            return 2;
        }
        const bool identical = renderResult(seq, opt.format) == renderResult(res, opt.format);
        std::ofstream js(opt.benchJson, std::ios::binary | std::ios::trunc);
        if (!js) {
            err << "rclint: cannot write '" << opt.benchJson << "'\n";
            return 2;
        }
        js << "{\n"
           << "  \"bench\": \"rclint_tree_scan\",\n"
           << "  \"files\": " << res.files.size() << ",\n"
           << "  \"threads\": " << threads << ",\n"
           << "  \"sequential_ms\": " << static_cast<long long>(seqMs * 100.0 + 0.5) / 100.0
           << ",\n"
           << "  \"threaded_ms\": " << static_cast<long long>(thrMs * 100.0 + 0.5) / 100.0
           << ",\n"
           << "  \"identical_output\": " << (identical ? "true" : "false") << "\n"
           << "}\n";
        js.close();
        if (!identical) {
            err << "rclint: threaded output diverged from sequential output\n";
            return 2;
        }
        if (opt.benchBudgetMs > 0.0 && thrMs > opt.benchBudgetMs) {
            err << "rclint: threaded scan took " << thrMs << " ms, over the "
                << opt.benchBudgetMs << " ms budget\n";
            return 2;
        }
    } else {
        res = analyzeTree(opt, &manifest, threads);
        if (!res.error.empty()) {
            err << "rclint: " << res.error << "\n";
            return 2;
        }
    }

    if (!opt.graphOut.empty()) {
        std::ofstream dot(opt.graphOut, std::ios::binary | std::ios::trunc);
        if (!dot) {
            err << "rclint: cannot write '" << opt.graphOut << "'\n";
            return 2;
        }
        dot << renderIncludeGraphDot(res.files, res.edges,
                                     manifest.empty() ? nullptr : &manifest);
    }

    out << renderResult(res, opt.format);
    return exitCode(res);
}

}  // namespace rclint
