// Golden-fixture coverage for rclint (tools/rclint): exact findings per
// rule, suppression behaviour, CLI exit codes, and the --format=github
// rendering. Fixtures live in tests/fixtures/rclint/ with a `.in` suffix
// so the tree-clean lint walk never mistakes them for real sources.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace rclint {
namespace {

std::string fixturePath(const std::string& name) {
    return std::string(RCLINT_FIXTURE_DIR) + "/" + name;
}

std::string readFixture(const std::string& name) {
    std::ifstream in(fixturePath(name), std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << name;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::vector<Finding> lintFixture(const std::string& name, bool isHeader) {
    return lintSource(fixturePath(name), readFixture(name), isHeader);
}

struct CliResult {
    int code = 0;
    std::string out;
    std::string err;
};

CliResult cli(const std::vector<std::string>& args) {
    std::ostringstream out;
    std::ostringstream err;
    CliResult r;
    r.code = runCli(args, out, err);
    r.out = out.str();
    r.err = err.str();
    return r;
}

// --- per-rule golden findings ----------------------------------------------

TEST(RclintGolden, BannedFunction) {
    const std::string path = fixturePath("banned_function.cpp.in");
    const std::vector<Finding> expected = {
        {path, 6, 5, "banned-function", "strcpy: unbounded copy; use std::string or std::copy"},
        {path, 7, 10, "banned-function", "sprintf: unbounded format; use std::snprintf"},
        {path, 11, 17, "banned-function",
         "atoi: accepts a malformed or partial number silently; use parseU64/parseU32"},
    };
    EXPECT_EQ(lintFixture("banned_function.cpp.in", false), expected);
}

TEST(RclintGolden, BannedNewDelete) {
    const std::string path = fixturePath("banned_new_delete.cpp.in");
    const std::vector<Finding> expected = {
        {path, 7, 12, "banned-new-delete",
         "raw new: use std::make_unique, containers, or values"},
        {path, 11, 5, "banned-new-delete", "raw delete: ownership belongs in RAII types"},
    };
    EXPECT_EQ(lintFixture("banned_new_delete.cpp.in", false), expected);
}

TEST(RclintGolden, PragmaOnceMissing) {
    const std::string path = fixturePath("pragma_once_missing.hpp.in");
    const std::vector<Finding> expected = {
        {path, 2, 1, "pragma-once", "header is missing #pragma once"},
    };
    EXPECT_EQ(lintFixture("pragma_once_missing.hpp.in", true), expected);
}

TEST(RclintGolden, PragmaOnceLateAndDuplicate) {
    const std::string path = fixturePath("pragma_once_late.hpp.in");
    const std::vector<Finding> expected = {
        {path, 2, 1, "pragma-once", "#pragma once must be the first preprocessing directive"},
        {path, 4, 1, "pragma-once", "duplicate #pragma once"},
    };
    EXPECT_EQ(lintFixture("pragma_once_late.hpp.in", true), expected);
}

TEST(RclintGolden, PragmaOnceRuleIsHeaderOnly) {
    // The same bytes linted as a .cpp raise nothing.
    EXPECT_TRUE(lintFixture("pragma_once_missing.hpp.in", false).empty());
}

TEST(RclintGolden, IncludeHygiene) {
    const std::string path = fixturePath("include_hygiene.cpp.in");
    const std::vector<Finding> expected = {
        {path, 3, 1, "include-hygiene", "duplicate include <vector>"},
        {path, 4, 1, "include-hygiene",
         "parent-relative include \"../detail/secret.hpp\": "
         "include project-root-relative paths"},
        {path, 5, 1, "include-hygiene", "C-compat header <string.h>: use <cstring>"},
    };
    EXPECT_EQ(lintFixture("include_hygiene.cpp.in", false), expected);
}

TEST(RclintGolden, TodoFormat) {
    const std::string path = fixturePath("todo_format.cpp.in");
    const std::vector<Finding> expected = {
        {path, 2, 1, "todo-format", "malformed TODO: write TODO(owner): description"},
        {path, 4, 1, "todo-format", "FIXME: use TODO(owner): instead"},
        {path, 5, 1, "todo-format", "XXX: use TODO(owner): instead"},
    };
    EXPECT_EQ(lintFixture("todo_format.cpp.in", false), expected);
}

TEST(RclintGolden, MetricName) {
    const std::string path = fixturePath("metric_name.cpp.in");
    const std::vector<Finding> expected = {
        {path, 3, 17, "metric-name", "counter 'rc_sync_attempts' must end in _total"},
    };
    EXPECT_EQ(lintFixture("metric_name.cpp.in", false), expected);
}

TEST(RclintGolden, CleanFixtureHasNoFindings) {
    EXPECT_TRUE(lintFixture("clean.cpp.in", false).empty());
}

// --- suppressions -----------------------------------------------------------

TEST(RclintSuppressions, SameLineAllow) {
    const std::string src =
        "void f() { int* p = new int; }  // rclint:allow(banned-new-delete)\n";
    EXPECT_TRUE(lintSource("mem.cpp", src, false).empty());
}

TEST(RclintSuppressions, LineAboveAllow) {
    const std::string src =
        "// rclint:allow(banned-new-delete)\n"
        "int* p = new int;\n";
    EXPECT_TRUE(lintSource("mem.cpp", src, false).empty());
}

TEST(RclintSuppressions, AllowFileCoversWholeFile) {
    const std::string src =
        "// rclint:allow-file(banned-new-delete)\n"
        "int* p = new int;\n"
        "int* q = new int;\n";
    EXPECT_TRUE(lintSource("mem.cpp", src, false).empty());
}

TEST(RclintSuppressions, AllowIsRuleSpecific) {
    // Allowing one rule must not silence another.
    const std::string src =
        "// rclint:allow(banned-function)\n"
        "int* p = new int;\n";
    const std::vector<Finding> findings = lintSource("mem.cpp", src, false);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "banned-new-delete");
}

// --- rules never fire inside strings or comments ---------------------------

TEST(RclintLexer, BannedNamesInsideStringsAndCommentsIgnored) {
    const std::string src =
        "// calling strcpy( here is just prose\n"
        "const char* kDoc = \"use strcpy(dst, src) never\";\n"
        "const char* kRaw = R\"(sprintf( inside raw string)\";\n";
    EXPECT_TRUE(lintSource("mem.cpp", src, false).empty());
}

// --- metric doc drift -------------------------------------------------------

TEST(RclintDrift, DocMetricNamesParsesBacktickSpans) {
    const auto names = docMetricNames(readFixture("metrics_doc.md"));
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0].first, "rc_widget_events_total");
    EXPECT_EQ(names[0].second, 5);
    EXPECT_EQ(names[1].first, "rc_stale_gauge");
    EXPECT_EQ(names[1].second, 6);
}

TEST(RclintDrift, CliReportsBothDirections) {
    const std::string driftPath = fixturePath("src/drift_use.cpp.in");
    const std::string docPath = fixturePath("metrics_doc.md");
    const CliResult r = cli({"--metrics-doc", docPath, driftPath});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        docPath + ":6:1: [metric-doc-drift] documented metric 'rc_stale_gauge' "
        "is never used in src/\n" +
        driftPath + ":5:15: [metric-doc-drift] metric 'rc_undocumented_depth' "
        "is not catalogued in " + docPath + "\n" +
        "rclint: 2 findings in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RclintDrift, NoMetricCheckDisablesDrift) {
    const std::string driftPath = fixturePath("src/drift_use.cpp.in");
    const std::string docPath = fixturePath("metrics_doc.md");
    const CliResult r = cli({"--no-metric-check", "--metrics-doc", docPath, driftPath});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "");
}

// --- CLI behaviour ----------------------------------------------------------

TEST(RclintCli, CleanFileExitsZeroSilently) {
    const CliResult r = cli({fixturePath("clean.cpp.in")});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "");
    EXPECT_EQ(r.err, "");
}

TEST(RclintCli, TextOutputIsGoldenExact) {
    const std::string path = fixturePath("include_hygiene.cpp.in");
    const CliResult r = cli({path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        path + ":3:1: [include-hygiene] duplicate include <vector>\n" +
        path + ":4:1: [include-hygiene] parent-relative include "
        "\"../detail/secret.hpp\": include project-root-relative paths\n" +
        path + ":5:1: [include-hygiene] C-compat header <string.h>: use <cstring>\n" +
        "rclint: 3 findings in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RclintCli, GithubFormatEmitsWorkflowAnnotations) {
    const std::string path = fixturePath("include_hygiene.cpp.in");
    const CliResult r = cli({"--format=github", path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        "::error file=" + path + ",line=3,col=1,title=rclint include-hygiene"
        "::duplicate include <vector>\n"
        "::error file=" + path + ",line=4,col=1,title=rclint include-hygiene"
        "::parent-relative include \"../detail/secret.hpp\": "
        "include project-root-relative paths\n"
        "::error file=" + path + ",line=5,col=1,title=rclint include-hygiene"
        "::C-compat header <string.h>: use <cstring>\n"
        "rclint: 3 findings in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RclintCli, GithubRenderingEscapesControlCharacters) {
    const Finding f{"a.cpp", 1, 2, "rule", "50% done\nnext\rline"};
    EXPECT_EQ(renderFinding(f, "github"),
              "::error file=a.cpp,line=1,col=2,title=rclint rule::50%25 done%0Anext%0Dline");
}

TEST(RclintCli, UsageErrorsExitTwo) {
    EXPECT_EQ(cli({"--format=bogus", "x"}).code, 2);
    EXPECT_EQ(cli({}).code, 2);
    EXPECT_EQ(cli({fixturePath("no_such_file.cpp.in")}).code, 2);
    EXPECT_EQ(cli({"--metrics-doc"}).code, 2);
    EXPECT_EQ(cli({"--unknown-flag", "x"}).code, 2);
}

TEST(RclintCli, HelpAndListRulesExitZero) {
    const CliResult help = cli({"--help"});
    EXPECT_EQ(help.code, 0);
    EXPECT_NE(help.out.find("usage: rclint"), std::string::npos);
    const CliResult rules = cli({"--list-rules"});
    EXPECT_EQ(rules.code, 0);
    EXPECT_NE(rules.out.find("banned-function"), std::string::npos);
    EXPECT_NE(rules.out.find("metric-doc-drift"), std::string::npos);
    EXPECT_NE(rules.out.find("layer-violation"), std::string::npos);
    EXPECT_NE(rules.out.find("include-cycle"), std::string::npos);
    EXPECT_NE(rules.out.find("nondet-iteration"), std::string::npos);
    EXPECT_NE(rules.out.find("nondet-time"), std::string::npos);
    EXPECT_NE(rules.out.find("nondet-pointer-order"), std::string::npos);
    EXPECT_NE(rules.out.find("lock-order"), std::string::npos);
}

// --- layering conformance (rcgraph) ----------------------------------------

TEST(RcgraphLayering, UpwardIncludeIsGoldenExactAndAllowSuppresses) {
    // graph/core/base.hpp includes two app headers; the second is covered
    // by rclint:allow(layer-violation) at the include site, so exactly
    // one finding survives. app -> core (downward) is silent.
    const CliResult r = cli({"--layers", fixturePath("graph/layers_fixture.conf"),
                             fixturePath("graph")});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        fixturePath("graph/core/base.hpp") +
        ":2:1: [layer-violation] module 'core' (layer 1) must not include 'app' "
        "(layer 2): " + fixturePath("graph/app/util.hpp") + "\n" +
        "rclint: 1 finding in 4 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphLayering, MalformedManifestExitsTwo) {
    const CliResult r = cli({"--layers", fixturePath("graph/bad_layers.conf"),
                             fixturePath("graph")});
    EXPECT_EQ(r.code, 2);
    EXPECT_EQ(r.err, "rclint: layers.conf:1: bad rank 'one'\n");
}

TEST(RcgraphLayering, GraphOutWritesClusteredDot) {
    const std::string dotPath = ::testing::TempDir() + "rclint_fixture_graph.dot";
    const CliResult r = cli({"--layers", fixturePath("graph/layers_fixture.conf"),
                             "--graph-out", dotPath, fixturePath("graph")});
    EXPECT_EQ(r.code, 1);
    std::ifstream in(dotPath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string expected =
        "// generated by rclint --graph-out; render with `dot -Tsvg`\n"
        "digraph includes {\n"
        "  rankdir=LR;\n"
        "  node [shape=box, fontsize=10];\n"
        "  subgraph cluster_app {\n"
        "    label=\"app (layer 2)\";\n"
        "    \"app/app.hpp\";\n"
        "    \"app/app2.hpp\";\n"
        "    \"app/util.hpp\";\n"
        "  }\n"
        "  subgraph cluster_core {\n"
        "    label=\"core (layer 1)\";\n"
        "    \"core/base.hpp\";\n"
        "  }\n"
        "  \"app/app.hpp\" -> \"core/base.hpp\";\n"
        "  \"core/base.hpp\" -> \"app/app2.hpp\";\n"
        "  \"core/base.hpp\" -> \"app/util.hpp\";\n"
        "}\n";
    EXPECT_EQ(ss.str(), expected);
}

// --- include cycles ---------------------------------------------------------

TEST(RcgraphCycle, IncludeCycleIsGoldenExact) {
    const CliResult r = cli({fixturePath("cycle")});
    EXPECT_EQ(r.code, 1);
    const std::string x = fixturePath("cycle/x.hpp");
    const std::string y = fixturePath("cycle/y.hpp");
    const std::string expected =
        x + ":2:1: [include-cycle] include cycle: " + x + " -> " + y + " -> " + x + "\n" +
        "rclint: 1 finding in 2 files\n";
    EXPECT_EQ(r.out, expected);
}

// --- determinism lint -------------------------------------------------------

TEST(RcgraphNondet, UnorderedIterationInSerializingTuIsGoldenExact) {
    const std::string path = fixturePath("nondet/iter_bad.cpp");
    const CliResult r = cli({path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        path + ":7:5: [nondet-iteration] iteration over unordered container 'gTable' "
        "in a TU that serializes output: drain into a sorted container first, or "
        "justify with rclint:allow(nondet-iteration)\n"
        "rclint: 1 finding in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphNondet, SortedDrainIsClean) {
    const CliResult r = cli({fixturePath("nondet/iter_sorted.cpp")});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "");
}

TEST(RcgraphNondet, BeginIteratorCallIsFlagged) {
    const std::string path = fixturePath("nondet/iter_begin.cpp");
    const CliResult r = cli({path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        path + ":7:13: [nondet-iteration] iterator over unordered container 'gSeen' "
        "in a TU that serializes output: drain into a sorted container first, or "
        "justify with rclint:allow(nondet-iteration)\n"
        "rclint: 1 finding in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphNondet, AllowSuppressesIteration) {
    const CliResult r = cli({fixturePath("nondet/iter_allow.cpp")});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "");
}

TEST(RcgraphNondet, WallClockReadsAreGoldenExact) {
    const std::string path = fixturePath("nondet/time_bad.cpp");
    const CliResult r = cli({path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        path + ":6:34: [nondet-time] system_clock: wall-clock reads break per-seed "
        "reproducibility; use the injectable obs clock (obs/clock.hpp)\n" +
        path + ":7:20: [nondet-time] time(): wall-clock read breaks per-seed "
        "reproducibility; use the injectable obs clock (obs/clock.hpp) or the "
        "simulated protocol clock (util/time.hpp)\n"
        "rclint: 2 findings in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphNondet, PointerOrderIsGoldenExact) {
    const std::string path = fixturePath("nondet/ptr_bad.cpp");
    const CliResult r = cli({path});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        path + ":7:27: [nondet-pointer-order] std::less over a raw pointer type "
        "orders by address, which varies run to run; key on a stable field instead\n" +
        path + ":10:48: [nondet-pointer-order] comparing raw pointers 'x < y' orders "
        "by address, which varies run to run; compare a stable key instead\n"
        "rclint: 2 findings in 1 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphNondet, ClosureCarriesHeaderDeclarationsAcrossFiles) {
    // writer.cpp itself declares no unordered container; the flagged
    // identifier comes from the included state.hpp via the include graph.
    const CliResult r = cli({fixturePath("nondet/cross")});
    EXPECT_EQ(r.code, 1);
    const std::string expected =
        fixturePath("nondet/cross/writer.cpp") +
        ":5:5: [nondet-iteration] iteration over unordered container 'index_' in a "
        "TU that serializes output: drain into a sorted container first, or justify "
        "with rclint:allow(nondet-iteration)\n"
        "rclint: 1 finding in 2 files\n";
    EXPECT_EQ(r.out, expected);
}

// --- lock-order analysis ----------------------------------------------------

TEST(RcgraphLockOrder, GlobalInversionIsGoldenExactAndExitsTwo) {
    // ab.cpp nests a -> b, ba.cpp nests b -> a: neither file alone has a
    // cycle, the merged global graph does — and a potential deadlock
    // escalates the exit code past plain findings.
    const CliResult r = cli({fixturePath("lockorder")});
    EXPECT_EQ(r.code, 2);
    const std::string expected =
        fixturePath("lockorder/ab.cpp") +
        ":4:9: [lock-order] lock-order cycle: a -> b -> a — nested acquisition "
        "inverts an order taken elsewhere; a concurrent interleaving deadlocks\n"
        "rclint: 1 finding in 2 files\n";
    EXPECT_EQ(r.out, expected);
}

TEST(RcgraphLockOrder, AllowAtAcquisitionSiteBreaksTheCycle) {
    const CliResult r = cli({fixturePath("lockorder_allow")});
    EXPECT_EQ(r.code, 0);
    EXPECT_EQ(r.out, "");
}

// --- deterministic parallel scan --------------------------------------------

TEST(RcgraphThreads, OutputIsByteIdenticalAcrossThreadCounts) {
    // The whole fixture forest (every rule firing at once) must render
    // identically no matter how the file scan is fanned out.
    const std::vector<std::string> base = {
        "--layers", fixturePath("graph/layers_fixture.conf"), std::string(RCLINT_FIXTURE_DIR)};
    std::vector<std::string> one = {"--threads", "1"};
    one.insert(one.end(), base.begin(), base.end());
    std::vector<std::string> five = {"--threads", "5"};
    five.insert(five.end(), base.begin(), base.end());
    const CliResult r1 = cli(one);
    const CliResult r5 = cli(five);
    EXPECT_EQ(r1.code, r5.code);
    EXPECT_EQ(r1.out, r5.out);
    EXPECT_FALSE(r1.out.empty());
}

TEST(RcgraphThreads, ThreadsFlagValidation) {
    EXPECT_EQ(cli({"--threads", "0", "x.cpp"}).code, 2);
    EXPECT_EQ(cli({"--threads", "abc", "x.cpp"}).code, 2);
    EXPECT_EQ(cli({"--threads", "4x", "x.cpp"}).code, 2);
    EXPECT_EQ(cli({"--bench-budget-ms", "nope", "x.cpp"}).code, 2);
}

TEST(RcgraphBench, BenchJsonRecordsSelfCheckedTimings) {
    const std::string jsonPath = ::testing::TempDir() + "rclint_bench_fixture.json";
    const CliResult r = cli({"--layers", fixturePath("graph/layers_fixture.conf"),
                             "--bench-json", jsonPath, "--threads", "3",
                             fixturePath("graph")});
    EXPECT_EQ(r.code, 1);  // same findings as the plain run
    std::ifstream in(jsonPath, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_NE(json.find("\"bench\": \"rclint_tree_scan\""), std::string::npos);
    EXPECT_NE(json.find("\"files\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"threads\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"identical_output\": true"), std::string::npos);
}

}  // namespace
}  // namespace rclint
