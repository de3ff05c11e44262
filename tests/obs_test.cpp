// Tests for the rpkiscope observability layer (src/obs/): histogram
// bucket-edge placement, Prometheus exposition + linter, Chrome-trace
// well-formedness, same-seed determinism of the chaos soak's telemetry
// dumps, telemetry-view consistency, and the structured logger.
//
// This binary doubles as the CI exposition linter:
//
//   obs_test --lint FILE...
//
// reads each FILE, runs obs::lintPrometheus over it, prints every problem,
// and exits non-zero if any file is dirty. CI points it at the soak's
// --metrics-out artifact, so the linter the tests validate is the same
// code that guards production dumps.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "sim/chaos_soak.hpp"
#include "util/errors.hpp"

namespace rpkic {
namespace {

using obs::Labels;
using obs::LogLevel;

// --- minimal JSON validator -------------------------------------------------
// Enough of RFC 8259 to certify that renderChromeTrace() output parses:
// objects, arrays, strings with escapes, numbers, literals.
class JsonChecker {
public:
    explicit JsonChecker(const std::string& text) : text_(text) {}

    bool valid() {
        pos_ = 0;
        skipWs();
        if (!value()) return false;
        skipWs();
        return pos_ == text_.size();
    }

private:
    bool value() {
        if (pos_ >= text_.size()) return false;
        switch (text_[pos_]) {
            case '{': return object();
            case '[': return array();
            case '"': return string();
            case 't': return literal("true");
            case 'f': return literal("false");
            case 'n': return literal("null");
            default: return number();
        }
    }

    bool object() {
        ++pos_;  // '{'
        skipWs();
        if (peek() == '}') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!string()) return false;
            skipWs();
            if (peek() != ':') return false;
            ++pos_;
            skipWs();
            if (!value()) return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == '}') { ++pos_; return true; }
            return false;
        }
    }

    bool array() {
        ++pos_;  // '['
        skipWs();
        if (peek() == ']') { ++pos_; return true; }
        while (true) {
            skipWs();
            if (!value()) return false;
            skipWs();
            if (peek() == ',') { ++pos_; continue; }
            if (peek() == ']') { ++pos_; return true; }
            return false;
        }
    }

    bool string() {
        if (peek() != '"') return false;
        ++pos_;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') { ++pos_; return true; }
            if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control char
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) return false;
                const char e = text_[pos_];
                if (e == 'u') {
                    for (int i = 1; i <= 4; ++i) {
                        if (pos_ + i >= text_.size() ||
                            !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i]))) {
                            return false;
                        }
                    }
                    pos_ += 4;
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                           e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            }
            ++pos_;
        }
        return false;
    }

    bool number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        if (!digits()) return false;
        if (peek() == '.') {
            ++pos_;
            if (!digits()) return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++pos_;
            if (peek() == '+' || peek() == '-') ++pos_;
            if (!digits()) return false;
        }
        return pos_ > start;
    }

    bool digits() {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        return pos_ > start;
    }

    bool literal(const char* word) {
        for (const char* p = word; *p != '\0'; ++p, ++pos_) {
            if (pos_ >= text_.size() || text_[pos_] != *p) return false;
        }
        return true;
    }

    void skipWs() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    const std::string& text_;
    std::size_t pos_ = 0;
};

/// Restores the steady clock even when an assertion throws mid-test.
struct TimeSourceGuard {
    explicit TimeSourceGuard(obs::TimeSource* source) { obs::setTimeSource(source); }
    ~TimeSourceGuard() { obs::setTimeSource(nullptr); }
};

// --- histograms -------------------------------------------------------------

TEST(ObsHistogram, BucketEdgesAreInclusiveUpperBounds) {
    obs::HistogramSpec spec;
    spec.firstBound = 1.0;
    spec.growth = 2.0;
    spec.bucketCount = 4;
    obs::Histogram h(spec);

    ASSERT_EQ(h.bounds().size(), 4u);
    EXPECT_DOUBLE_EQ(h.bounds()[0], 1.0);
    EXPECT_DOUBLE_EQ(h.bounds()[1], 2.0);
    EXPECT_DOUBLE_EQ(h.bounds()[2], 4.0);
    EXPECT_DOUBLE_EQ(h.bounds()[3], 8.0);

    h.observe(1.0);   // == bound 0: Prometheus `le` is inclusive
    h.observe(1.5);   // bucket 1
    h.observe(2.0);   // == bound 1
    h.observe(8.0);   // == last finite bound
    h.observe(8.01);  // +Inf only
    h.observe(0.0);   // below everything: bucket 0

    EXPECT_EQ(h.bucketCount(0), 2u);  // 1.0, 0.0
    EXPECT_EQ(h.bucketCount(1), 2u);  // 1.5, 2.0
    EXPECT_EQ(h.bucketCount(2), 0u);
    EXPECT_EQ(h.bucketCount(3), 1u);  // 8.0
    EXPECT_EQ(h.bucketCount(4), 1u);  // +Inf overflow: 8.01
    EXPECT_EQ(h.totalCount(), 6u);
    EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 8.0 + 8.01 + 0.0);
}

TEST(ObsHistogram, DefaultSpecSpansMicrosecondsToSeconds) {
    obs::Histogram h{obs::HistogramSpec{}};
    ASSERT_EQ(h.bounds().size(), 32u);
    EXPECT_DOUBLE_EQ(h.bounds().front(), 1e-6);
    EXPECT_GT(h.bounds().back(), 1.0);  // covers multi-second outliers
    // Strictly ascending — required for cumulative exposition.
    for (std::size_t i = 1; i < h.bounds().size(); ++i) {
        EXPECT_LT(h.bounds()[i - 1], h.bounds()[i]);
    }
}

TEST(ObsHistogram, ExpositionBucketsAreCumulative) {
    obs::Registry reg;
    obs::HistogramSpec spec;
    spec.firstBound = 0.001;
    spec.growth = 10.0;
    spec.bucketCount = 3;
    obs::Histogram& h = reg.histogram("rc_test_seconds", "test latencies", {}, spec);
    h.observe(0.0005);
    h.observe(0.005);
    h.observe(0.05);
    h.observe(5.0);

    const auto samples = obs::parsePrometheus(reg.renderPrometheus());
    std::vector<double> bucketValues;
    double count = -1.0;
    for (const auto& s : samples) {
        if (s.name == "rc_test_seconds_bucket") bucketValues.push_back(s.value);
        if (s.name == "rc_test_seconds_count") count = s.value;
    }
    ASSERT_EQ(bucketValues.size(), 4u);  // 3 finite + +Inf
    for (std::size_t i = 1; i < bucketValues.size(); ++i) {
        EXPECT_GE(bucketValues[i], bucketValues[i - 1]) << "bucket " << i << " not cumulative";
    }
    EXPECT_DOUBLE_EQ(bucketValues.back(), 4.0);  // +Inf == _count
    EXPECT_DOUBLE_EQ(count, 4.0);
}

// --- registry contract ------------------------------------------------------

TEST(ObsRegistry, EnforcesNamingRules) {
    obs::Registry reg;
    // rclint:allow(metric-name) — the point of this test is the bad name.
    EXPECT_THROW(reg.counter("rc_bad_counter", "no _total suffix"), UsageError);
    EXPECT_THROW(reg.counter("1bad_total", "bad leading digit"), UsageError);
    // A name registered as one type cannot come back as another.
    reg.counter("rc_clash_total", "counter first");
    EXPECT_THROW(reg.gauge("rc_clash_total", "now as gauge"), UsageError);
    EXPECT_THROW(reg.counter("rc_labels_total", "bad label", {{"1bad", "v"}}), UsageError);
}

TEST(ObsRegistry, SameNameAndLabelsReturnsSameInstrument) {
    obs::Registry reg;
    obs::Counter& a = reg.counter("rc_dedupe_total", "x", {{"k", "v"}});
    obs::Counter& b = reg.counter("rc_dedupe_total", "x", {{"k", "v"}});
    obs::Counter& c = reg.counter("rc_dedupe_total", "x", {{"k", "other"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &c);
    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsRegistry, RenderIsLintCleanAndDeterministic) {
    obs::Registry reg;
    reg.counter("rc_events_total", "events", {{"kind", "a\\b\"c\nd"}}).inc(7);
    reg.gauge("rc_depth", "queue depth").set(-3);
    reg.histogram("rc_latency_seconds", "latency").observe(0.01);

    const std::string text = reg.renderPrometheus();
    const auto problems = obs::lintPrometheus(text);
    for (const auto& p : problems) ADD_FAILURE() << "lint: " << p;
    EXPECT_EQ(text, reg.renderPrometheus()) << "render must be deterministic";

    // The escaped label value must round-trip through the parser intact.
    const auto samples = obs::parsePrometheus(text);
    bool sawEscaped = false;
    for (const auto& s : samples) {
        if (s.name == "rc_events_total") {
            sawEscaped = s.labels.find("a\\\\b\\\"c\\nd") != std::string::npos;
            EXPECT_DOUBLE_EQ(s.value, 7.0);
        }
    }
    EXPECT_TRUE(sawEscaped) << "escaped label value missing from exposition:\n" << text;
}

TEST(ObsRegistry, CountersAreMonotoneAcrossDumps) {
    obs::Registry reg;
    obs::Counter& c = reg.counter("rc_mono_total", "m", {{"k", "v"}});
    c.inc(2);
    const auto first = obs::parsePrometheus(reg.renderPrometheus());
    c.inc(5);
    const auto second = obs::parsePrometheus(reg.renderPrometheus());

    std::map<std::string, double> before;
    for (const auto& s : first) before[s.name + "{" + s.labels + "}"] = s.value;
    for (const auto& s : second) {
        const auto it = before.find(s.name + "{" + s.labels + "}");
        if (it == before.end()) continue;
        EXPECT_GE(s.value, it->second) << s.name << " went backwards";
    }
}

TEST(ObsRegistry, SnapshotIsPlainDataEquivalentToLiveRender) {
    // Registry::snapshot() is what /metrics and --metrics-out render
    // from: a torn-read-free copy whose exposition must be exactly the
    // live registry's, and which stays frozen while the source moves on.
    obs::Registry reg;
    reg.counter("rc_snap_total", "s", {{"k", "v"}}).inc(4);
    reg.gauge("rc_snap_depth", "d").set(9);
    obs::Histogram& h = reg.histogram("rc_snap_seconds", "s");
    h.observe(0.002);
    h.observe(1.5);

    const obs::RegistrySnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.renderPrometheus(), reg.renderPrometheus());
    EXPECT_TRUE(obs::lintPrometheus(snap.renderPrometheus()).empty());

    ASSERT_EQ(snap.families.size(), 3u);  // sorted by name
    EXPECT_EQ(snap.families[0].name, "rc_snap_depth");
    EXPECT_EQ(snap.families[1].name, "rc_snap_seconds");
    EXPECT_EQ(snap.families[2].name, "rc_snap_total");

    const obs::FamilySnapshot* counter = snap.find("rc_snap_total");
    ASSERT_NE(counter, nullptr);
    ASSERT_EQ(counter->series.size(), 1u);
    EXPECT_EQ(counter->series[0].labels, "{k=\"v\"}");
    EXPECT_EQ(counter->series[0].value, 4.0);
    const obs::FamilySnapshot* hist = snap.find("rc_snap_seconds");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->series[0].count, 2u);
    EXPECT_EQ(snap.find("rc_absent_total"), nullptr);

    // The snapshot is decoupled: later writes do not retroactively
    // appear in it.
    reg.counter("rc_snap_total", "s", {{"k", "v"}}).inc(10);
    const obs::FamilySnapshot* again = snap.find("rc_snap_total");
    EXPECT_EQ(again->series[0].value, 4.0);
}

// --- the linter itself ------------------------------------------------------

TEST(ObsLint, AcceptsMinimalValidExposition) {
    const std::string text =
        "# HELP rc_ok_total fine\n"
        "# TYPE rc_ok_total counter\n"
        "rc_ok_total{k=\"v\"} 3\n";
    EXPECT_TRUE(obs::lintPrometheus(text).empty());
}

TEST(ObsLint, CatchesStructuralProblems) {
    // One problem per input; each must be flagged.
    const std::vector<std::string> dirty = {
        // sample without HELP/TYPE headers
        "rc_orphan_total 1\n",
        // TYPE after the first sample
        "# HELP rc_late_total x\nrc_late_total 1\n# TYPE rc_late_total counter\n",
        // counter missing the _total suffix
        "# HELP rc_notcounter y\n# TYPE rc_notcounter counter\nrc_notcounter 2\n",
        // negative counter
        "# HELP rc_neg_total z\n# TYPE rc_neg_total counter\nrc_neg_total -1\n",
        // non-cumulative histogram buckets
        "# HELP rc_h_seconds h\n# TYPE rc_h_seconds histogram\n"
        "rc_h_seconds_bucket{le=\"1\"} 5\n"
        "rc_h_seconds_bucket{le=\"2\"} 3\n"
        "rc_h_seconds_bucket{le=\"+Inf\"} 5\n"
        "rc_h_seconds_sum 1\nrc_h_seconds_count 5\n",
        // +Inf bucket disagrees with _count
        "# HELP rc_g_seconds h\n# TYPE rc_g_seconds histogram\n"
        "rc_g_seconds_bucket{le=\"1\"} 2\n"
        "rc_g_seconds_bucket{le=\"+Inf\"} 2\n"
        "rc_g_seconds_sum 1\nrc_g_seconds_count 9\n",
        // duplicate series
        "# HELP rc_dup_total d\n# TYPE rc_dup_total counter\n"
        "rc_dup_total{k=\"v\"} 1\nrc_dup_total{k=\"v\"} 2\n",
        // unquoted label value
        "# HELP rc_esc_total e\n# TYPE rc_esc_total counter\n"
        "rc_esc_total{k=unquoted} 1\n",
        // invalid metric name
        "# HELP rc-dash_total e\n# TYPE rc-dash_total counter\nrc-dash_total 1\n",
    };
    for (const auto& text : dirty) {
        EXPECT_FALSE(obs::lintPrometheus(text).empty())
            << "linter accepted dirty input:\n" << text;
    }
}

TEST(ObsLint, RealSoakExpositionIsClean) {
    TimeSourceGuard guard(nullptr);  // wall clock is fine; lint is value-agnostic
    obs::Registry reg;
    sim::SoakConfig cfg;
    cfg.seed = 5;
    cfg.rounds = 8;
    cfg.registry = &reg;
    (void)sim::runSoak(cfg);
    const std::string text = reg.renderPrometheus();
    const auto problems = obs::lintPrometheus(text);
    for (const auto& p : problems) ADD_FAILURE() << "lint: " << p;
    // The acceptance metrics must be present.
    EXPECT_NE(text.find("rc_alarms_total"), std::string::npos);
    EXPECT_NE(text.find("rc_sync_attempts_total"), std::string::npos);
    EXPECT_NE(text.find("rc_rp_procedure_seconds"), std::string::npos);
}

// --- tracing ----------------------------------------------------------------

TEST(ObsTrace, ChromeTraceIsValidJsonWithExpectedShape) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(16);
    tracer.setEnabled(true);
    {
        const obs::Scope outer(tracer, "outer", "test");
        const obs::Scope inner(tracer, "inner", "test");
    }
    ASSERT_EQ(tracer.size(), 2u);

    const std::string json = tracer.renderChromeTrace();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"inner\""), std::string::npos);
    EXPECT_NE(json.find("\"outer\""), std::string::npos);
}

TEST(ObsTrace, RingBoundsMemoryAndCountsDrops) {
    obs::LogicalTimeSource clock(1);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(4);
    tracer.setEnabled(true);
    for (int i = 0; i < 10; ++i) {
        const obs::Scope s(tracer, "tick", "test");
    }
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].seq, events[i].seq) << "snapshot out of order";
    }
}

TEST(ObsTrace, DisabledTracerRecordsNothing) {
    obs::Tracer tracer(8);
    {
        const obs::Scope s(tracer, "ghost", "test");
    }
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_TRUE(JsonChecker(tracer.renderChromeTrace()).valid());
}

// --- the one instrumentation scope -------------------------------------------

TEST(ObsScope, SpanAndHistogramShareTwoClockReads) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(8);
    tracer.setEnabled(true);
    obs::Registry reg;
    obs::Histogram& hist = reg.histogram("rc_scope_test_seconds", "scope");
    {
        const obs::Scope scope(tracer, "work", "test", &hist);
    }
    EXPECT_EQ(clock.reads(), 2u);
    const std::vector<obs::TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].durNanos, 1000u);
    EXPECT_EQ(hist.totalCount(), 1u);
    EXPECT_DOUBLE_EQ(hist.sum(), static_cast<double>(events[0].durNanos) * 1e-9);
}

TEST(ObsScope, RuntimeSwitchGatesTheHistogramNotTheSpan) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(8);
    tracer.setEnabled(true);
    obs::Registry reg;
    obs::Histogram& hist = reg.histogram("rc_scope_test_seconds", "scope");
    obs::setRuntimeEnabled(false);
    {
        const obs::Scope scope(tracer, "work", "test", &hist);
    }
    obs::setRuntimeEnabled(true);
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_EQ(hist.totalCount(), 0u);
    EXPECT_EQ(clock.reads(), 2u);
}

TEST(ObsScope, NoSpanAndNoHistogramNeverReadsTheClock) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(8);  // disabled
    obs::FlightRecorder rec(8);
    {
        const obs::Scope spanOnly(tracer, "work", "test");
        const obs::Scope flightOnly(tracer, "work", "test", nullptr, &rec, "round r=1");
    }
    EXPECT_EQ(clock.reads(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 1u);
}

TEST(ObsScope, DisabledRecorderSeesNoScopeAndNoEvent) {
    obs::FlightRecorder rec(8, /*enabled=*/false);
    {
        const obs::Scope scope("work", "test", nullptr, &rec, "round r=1");
        rec.setEnabled(true);  // sinks are chosen when the scope opens
        EXPECT_TRUE(rec.openScopes().empty());
    }
    EXPECT_TRUE(rec.openScopes().empty());
    EXPECT_EQ(rec.totalRecorded(), 0u);
}

TEST(ObsScope, MovedFromScopeRecordsNothing) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);
    obs::Tracer tracer(8);
    tracer.setEnabled(true);
    obs::Registry reg;
    obs::Histogram& hist = reg.histogram("rc_scope_test_seconds", "scope");
    obs::FlightRecorder rec(8);
    {
        obs::Scope from(tracer, "work", "test", &hist, &rec, "round r=1");
        {
            const obs::Scope to(std::move(from));
            EXPECT_EQ(rec.openScopes(), std::vector<std::string>{"test round r=1"});
        }
        EXPECT_EQ(tracer.size(), 1u);
        EXPECT_EQ(hist.totalCount(), 1u);
        EXPECT_EQ(rec.totalRecorded(), 1u);
    }
    EXPECT_EQ(tracer.size(), 1u);
    EXPECT_EQ(hist.totalCount(), 1u);
    EXPECT_EQ(rec.totalRecorded(), 1u);
    EXPECT_TRUE(rec.openScopes().empty());
    EXPECT_EQ(clock.reads(), 2u);
}

// --- determinism ------------------------------------------------------------

TEST(ObsDeterminism, SameSeedSoakDumpsAreByteIdentical) {
    obs::LogicalTimeSource clock(1000);
    TimeSourceGuard guard(&clock);

    const auto dump = [](std::uint64_t seed) {
        obs::Registry reg;
        sim::SoakConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 10;
        cfg.registry = &reg;
        (void)sim::runSoak(cfg);
        return reg.renderPrometheus();
    };

    const std::string first = dump(7);
    const std::string second = dump(7);
    EXPECT_EQ(first, second) << "same-seed soak telemetry must be byte-identical";
    EXPECT_NE(first, dump(8)) << "different seeds should diverge";
}

TEST(ObsDeterminism, LogicalClockIsMonotoneAndSteppy) {
    obs::LogicalTimeSource clock(250, 1000);
    EXPECT_EQ(clock.nowNanos(), 1250u);
    EXPECT_EQ(clock.nowNanos(), 1500u);
    obs::LogicalTimeSource zeroStep(0);  // clamps to 1, never stalls
    const std::uint64_t a = zeroStep.nowNanos();
    const std::uint64_t b = zeroStep.nowNanos();
    EXPECT_LT(a, b);
}

// --- telemetry views --------------------------------------------------------

TEST(ObsTelemetry, SoakRoundReportsSumToStats) {
    obs::Registry reg;
    sim::SoakConfig cfg;
    cfg.seed = 3;
    cfg.rounds = 12;
    cfg.registry = &reg;
    const sim::SoakResult r = sim::runSoak(cfg);
    ASSERT_EQ(r.rounds.size(), cfg.rounds);

    std::uint64_t attempts = 0, retries = 0, absorbed = 0, failed = 0;
    for (const auto& round : r.rounds) {
        attempts += round.attempts;
        retries += round.retries;
        absorbed += round.faultsAbsorbed;
        failed += round.pointsFailed;
    }
    EXPECT_EQ(attempts, r.stats.attempts);
    EXPECT_EQ(retries, r.stats.retries);
    EXPECT_EQ(absorbed, r.stats.faultsAbsorbed);
    EXPECT_EQ(failed, r.stats.pointRoundsFailed);

    // The registry agrees with the materialized stats: the chaotic
    // engine's labelled attempt counters sum to at least the report sum
    // (the registry also holds the twin engine's series).
    double regAttempts = 0;
    for (const auto& s : obs::parsePrometheus(reg.renderPrometheus())) {
        if (s.name == "rc_sync_attempts_total") regAttempts += s.value;
    }
    EXPECT_GE(regAttempts, static_cast<double>(attempts));
}

// --- logger -----------------------------------------------------------------

TEST(ObsLog, LevelsFilterAndLinesAreStructured) {
    obs::Logger logger;
    std::vector<std::string> lines;
    logger.setSink([&](const std::string& line) { lines.push_back(line); });

    logger.setLevel(LogLevel::Warn);
    logger.log(LogLevel::Info, "sync", "ignored");
    logger.log(LogLevel::Warn, "sync", "point-quarantined",
               {{"point", "rpki://a/"}, {"failures", "3"}});
    logger.log(LogLevel::Error, "rp", "alarm");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0],
              "level=warn comp=sync event=point-quarantined point=rpki://a/ failures=3");
    EXPECT_EQ(lines[1], "level=error comp=rp event=alarm");

    logger.setLevel(LogLevel::Off);
    logger.log(LogLevel::Error, "rp", "dropped");
    EXPECT_EQ(lines.size(), 2u);
}

TEST(ObsLog, RateLimitSuppressesPerComponentEvent) {
    obs::LogicalTimeSource clock(1);  // 1ns per read: all events in one window
    TimeSourceGuard guard(&clock);

    obs::Logger logger;
    std::vector<std::string> lines;
    logger.setSink([&](const std::string& line) { lines.push_back(line); });
    logger.setLevel(LogLevel::Info);
    logger.setRateLimit(2, 1'000'000'000ull);

    for (int i = 0; i < 5; ++i) logger.log(LogLevel::Warn, "sync", "flap");
    logger.log(LogLevel::Warn, "sync", "other-event");  // separate bucket
    EXPECT_EQ(lines.size(), 3u);  // 2 flaps + 1 other
    EXPECT_EQ(logger.suppressed(), 3u);

    // burst=0 disables limiting entirely.
    obs::Logger unlimited;
    std::size_t count = 0;
    unlimited.setSink([&](const std::string&) { ++count; });
    unlimited.setLevel(LogLevel::Info);
    unlimited.setRateLimit(0, 1'000'000'000ull);
    for (int i = 0; i < 50; ++i) unlimited.log(LogLevel::Warn, "sync", "flap");
    EXPECT_EQ(count, 50u);
}

TEST(ObsLog, LevelParsingRoundTrips) {
    EXPECT_EQ(obs::logLevelFromString("warn"), LogLevel::Warn);
    EXPECT_EQ(obs::logLevelFromString("ERROR"), LogLevel::Error);
    EXPECT_EQ(obs::logLevelFromString("nonsense"), LogLevel::Off);
    EXPECT_EQ(obs::toString(LogLevel::Debug), "debug");
}

// --- runtime switch ---------------------------------------------------------

TEST(ObsRuntime, MacroGateStopsRecordingWhenDisabled) {
    obs::Registry reg;
    obs::Counter& c = reg.counter("rc_gate_total", "gate");
    obs::setRuntimeEnabled(true);
    RC_OBS_COUNT(c, 2);
    obs::setRuntimeEnabled(false);
    RC_OBS_COUNT(c, 100);
    obs::setRuntimeEnabled(true);
    EXPECT_EQ(c.value(), 2u);
}

}  // namespace
}  // namespace rpkic

// Custom main: `--lint FILE...` turns this binary into the CI exposition
// linter; anything else falls through to googletest.
int main(int argc, char** argv) {
    if (argc >= 2 && std::string(argv[1]) == "--lint") {
        if (argc < 3) {
            std::fprintf(stderr, "usage: obs_test --lint FILE...\n");
            return 1;
        }
        int dirty = 0;
        for (int i = 2; i < argc; ++i) {
            std::ifstream in(argv[i], std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "obs_test: cannot open %s\n", argv[i]);
                return 1;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            const auto problems = rpkic::obs::lintPrometheus(buf.str());
            if (problems.empty()) {
                std::printf("%s: clean\n", argv[i]);
            } else {
                ++dirty;
                std::printf("%s: %zu problem(s)\n", argv[i], problems.size());
                for (const auto& p : problems) std::printf("  %s\n", p.c_str());
            }
        }
        return dirty == 0 ? 0 : 2;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
