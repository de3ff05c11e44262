// Flight recorder + postmortem bundles (src/obs/flight/).
//
// Covers the PR's determinism contract end to end: ring wraparound and
// drop accounting, scope stacking, the bundle text's sections, and —
// the load-bearing property — byte-identical postmortem bundles across
// same-seed runs of the soak, the crash sweep, and the fleet at every
// pool size.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/metrics.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "util/parallel.hpp"

namespace rpkic {
namespace {

using obs::FlightEvent;
using obs::FlightKind;
using obs::FlightRecorder;
using obs::Scope;

TEST(FlightRecorder, RecordsInSequenceOrder) {
    FlightRecorder rec(/*capacity=*/16);
    rec.record(FlightKind::Alarm, "rp", "a");
    rec.record(FlightKind::StoreCommit, "store", "b");
    rec.record(FlightKind::LogLine, "sync", "c");

    const std::vector<FlightEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[1].seq, 2u);
    EXPECT_EQ(events[2].seq, 3u);
    EXPECT_EQ(events[0].kind, FlightKind::Alarm);
    EXPECT_EQ(events[1].component, "store");
    EXPECT_EQ(events[2].detail, "c");
    EXPECT_EQ(rec.size(), 3u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 3u);
}

TEST(FlightRecorder, RingWrapsKeepingNewestAndCountsDrops) {
    FlightRecorder rec(/*capacity=*/4);
    for (int i = 0; i < 10; ++i) {
        rec.record(FlightKind::LogLine, "c", "event-" + std::to_string(i));
    }
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.dropped(), 6u);
    EXPECT_EQ(rec.totalRecorded(), 10u);

    const std::vector<FlightEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 4u);
    // Oldest-retained first, newest last; seq keeps counting past the wrap.
    EXPECT_EQ(events.front().seq, 7u);
    EXPECT_EQ(events.front().detail, "event-6");
    EXPECT_EQ(events.back().seq, 10u);
    EXPECT_EQ(events.back().detail, "event-9");
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
    FlightRecorder rec(/*capacity=*/8, /*enabled=*/false);
    rec.record(FlightKind::Alarm, "rp", "ignored");
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.totalRecorded(), 0u);

    rec.setEnabled(true);
    rec.record(FlightKind::Alarm, "rp", "kept");
    EXPECT_EQ(rec.size(), 1u);
}

TEST(FlightRecorder, DrainReturnsEventsAndClearsRing) {
    FlightRecorder rec(/*capacity=*/4);
    for (int i = 0; i < 6; ++i) rec.record(FlightKind::LogLine, "c", std::to_string(i));
    const std::vector<FlightEvent> drained = rec.drain();
    EXPECT_EQ(drained.size(), 4u);
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 2u);  // drop counter survives the drain
    EXPECT_TRUE(rec.snapshot().empty());
}

TEST(FlightRecorder, ScopesNestAndCloseInLifoOrder) {
    FlightRecorder rec(/*capacity=*/16);
    {
        const Scope outer("soak.run", "soak", nullptr, &rec, "run seed=7");
        {
            const Scope inner("soak.round", "soak", nullptr, &rec, "round r=3");
            const std::vector<std::string> open = rec.openScopes();
            ASSERT_EQ(open.size(), 2u);
            EXPECT_EQ(open[0], "soak run seed=7");
            EXPECT_EQ(open[1], "soak round r=3");
        }
        EXPECT_EQ(rec.openScopes().size(), 1u);
    }
    EXPECT_TRUE(rec.openScopes().empty());

    const std::vector<FlightEvent> events = rec.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, FlightKind::SpanClose);
    EXPECT_EQ(events[0].detail, "round r=3");  // inner closed first
    EXPECT_EQ(events[1].detail, "run seed=7");
}

TEST(FlightRecorder, AttachMetricsCountsEventsAndDrops) {
    obs::Registry registry;
    FlightRecorder rec(/*capacity=*/2);
    rec.attachMetrics(&registry);
    rec.record(FlightKind::Alarm, "rp", "a");
    rec.record(FlightKind::Alarm, "rp", "b");
    rec.record(FlightKind::StoreCommit, "store", "c");  // overwrites one

    const obs::RegistrySnapshot snap = registry.snapshot();
    const obs::FamilySnapshot* events = snap.find("rc_flight_events_total");
    ASSERT_NE(events, nullptr);
    // Eager registration: all kinds present, including never-recorded ones.
    EXPECT_EQ(events->series.size(), obs::kFlightKindCount);
    double alarmCount = -1.0;
    double verdictCount = -1.0;
    for (const obs::SeriesSnapshot& s : events->series) {
        if (s.labels.find("alarm") != std::string::npos) alarmCount = s.value;
        if (s.labels.find("fleet-verdict") != std::string::npos) verdictCount = s.value;
    }
    EXPECT_EQ(alarmCount, 2.0);
    EXPECT_EQ(verdictCount, 0.0);
    const obs::FamilySnapshot* dropped = snap.find("rc_flight_dropped_total");
    ASSERT_NE(dropped, nullptr);
    ASSERT_EQ(dropped->series.size(), 1u);
    EXPECT_EQ(dropped->series[0].value, 1.0);
}

TEST(FlightRecorder, FlightRecordTeesIntoEnabledGlobal) {
    FlightRecorder& global = FlightRecorder::global();
    global.clear();
    FlightRecorder local(/*capacity=*/8);

    // Global disabled: only the local recorder sees the event.
    obs::flightRecord(&local, FlightKind::Alarm, "rp", "one");
    EXPECT_EQ(local.size(), 1u);
    EXPECT_EQ(global.size(), 0u);

    global.setEnabled(true);
    obs::flightRecord(&local, FlightKind::Alarm, "rp", "two");
    EXPECT_EQ(local.size(), 2u);
    EXPECT_EQ(global.size(), 1u);
    global.setEnabled(false);
    global.clear();
}

TEST(Postmortem, BundleRoundTripsThroughParse) {
    obs::Registry registry;
    registry.counter("rc_test_ops_total", "ops").inc(3);
    registry.gauge("rc_test_depth", "depth").set(7);
    obs::Histogram& h = registry.histogram("rc_test_lat_seconds", "lat");
    h.observe(0.001);
    h.observe(0.5);

    FlightRecorder rec(/*capacity=*/8);
    const Scope scope("soak.run", "soak", nullptr, &rec, "run seed=1");
    rec.record(FlightKind::InvariantFail, "soak", "round 3: I2 violated");

    const std::string text = obs::buildPostmortem(
        rec, &registry, "invariant-fail", {{"seed", "1"}, {"round", "3"}});

    // Trigger, context rows in order, the open scope, then the flight
    // section with its one event.
    EXPECT_EQ(text.rfind("RPKIC-POSTMORTEM v1\n"
                         "trigger: invariant-fail\n"
                         "context: seed = 1\n"
                         "context: round = 3\n"
                         "-- scopes open=1 --\n"
                         "scope: soak run seed=1\n"
                         "-- flight events=1 dropped=0 --\n"
                         "evt: seq=",
                         0),
              0u)
        << text;
    EXPECT_NE(text.find(" kind=invariant-fail comp=soak | round 3: I2 violated\n-- metrics "),
              std::string::npos)
        << text;
    EXPECT_TRUE(text.ends_with("\n-- end --\n"));

    // Metrics digest: counters and gauges in full, histograms as _count
    // only (bucket shapes depend on clock interleaving; counts do not).
    const std::size_t metricsAt = text.find("\n-- metrics ");
    ASSERT_NE(metricsAt, std::string::npos);
    const std::string metrics = text.substr(metricsAt);
    EXPECT_NE(metrics.find("\nrc_test_ops_total"), std::string::npos);
    EXPECT_NE(metrics.find("\nrc_test_depth"), std::string::npos);
    EXPECT_NE(metrics.find("\nrc_test_lat_seconds_count"), std::string::npos);
    EXPECT_EQ(metrics.find("_bucket"), std::string::npos);
}

TEST(Postmortem, RenderFlightEventsIsStable) {
    FlightRecorder rec(4);
    rec.record(FlightKind::CrashRealized, "soak", "crash=1 round=5");
    const std::string rendered = obs::renderFlightEvents(rec.snapshot());
    EXPECT_EQ(rendered, "evt: seq=1 kind=crash-realized comp=soak | crash=1 round=5\n");
}

// --- determinism: same seed => byte-identical bundles ----------------------

sim::SoakConfig forcedSoakConfig(std::uint64_t seed) {
    sim::SoakConfig cfg;
    cfg.seed = seed;
    cfg.rounds = 12;
    cfg.forceInvariantFail = true;
    return cfg;
}

TEST(FlightDeterminism, ForcedSoakFailureCapturesParseableBundle) {
    const sim::SoakResult r = sim::runSoak(forcedSoakConfig(5));
    EXPECT_FALSE(r.passed);
    ASSERT_FALSE(r.postmortems.empty());
    const obs::CapturedBundle& b = r.postmortems.back();
    EXPECT_EQ(b.trigger, "invariant-fail");
    EXPECT_EQ(b.bytes.rfind("RPKIC-POSTMORTEM v1\ntrigger: invariant-fail\n", 0), 0u);
    // A non-empty flight section.
    EXPECT_EQ(b.bytes.find("\n-- flight events=0 "), std::string::npos);
    EXPECT_NE(b.bytes.find("\nevt: seq="), std::string::npos);
}

TEST(FlightDeterminism, SameSeedSoakBundlesAreByteIdentical) {
    const sim::SoakResult a = sim::runSoak(forcedSoakConfig(7));
    const sim::SoakResult b = sim::runSoak(forcedSoakConfig(7));
    ASSERT_EQ(a.postmortems.size(), b.postmortems.size());
    ASSERT_FALSE(a.postmortems.empty());
    for (std::size_t i = 0; i < a.postmortems.size(); ++i) {
        EXPECT_EQ(a.postmortems[i].label, b.postmortems[i].label);
        EXPECT_EQ(a.postmortems[i].bytes, b.postmortems[i].bytes) << "bundle " << i;
    }
}

TEST(FlightDeterminism, CrashSoakCapturesCrashRealizedBundles) {
    sim::SoakConfig cfg;
    cfg.seed = 3;
    cfg.rounds = 16;
    cfg.crashEvery = 4;
    const sim::SoakResult a = sim::runSoak(cfg);
    const sim::SoakResult b = sim::runSoak(cfg);
    ASSERT_FALSE(a.postmortems.empty());
    bool sawCrash = false;
    for (const obs::CapturedBundle& bundle : a.postmortems) {
        EXPECT_EQ(bundle.bytes.rfind("RPKIC-POSTMORTEM v1\ntrigger: " + bundle.trigger + "\n", 0),
                  0u);
        EXPECT_TRUE(bundle.bytes.ends_with("\n-- end --\n"));
        if (bundle.trigger != "crash-realized") continue;
        sawCrash = true;
        // The realized crash is in the flight section of its own bundle.
        EXPECT_NE(bundle.bytes.find(" kind=crash-realized comp=soak | "), std::string::npos)
            << bundle.bytes;
    }
    EXPECT_TRUE(sawCrash);
    ASSERT_EQ(a.postmortems.size(), b.postmortems.size());
    for (std::size_t i = 0; i < a.postmortems.size(); ++i) {
        EXPECT_EQ(a.postmortems[i].bytes, b.postmortems[i].bytes) << "bundle " << i;
    }
}

TEST(FlightDeterminism, SameSeedSweepRecorderStreamsMatch) {
    sim::SweepConfig cfg;
    cfg.seed = 2;
    cfg.rounds = 3;
    obs::FlightRecorder recA(FlightRecorder::kDefaultCapacity);
    obs::FlightRecorder recB(FlightRecorder::kDefaultCapacity);
    sim::SweepConfig cfgA = cfg;
    cfgA.recorder = &recA;
    sim::SweepConfig cfgB = cfg;
    cfgB.recorder = &recB;
    const sim::SweepResult a = sim::runCrashSweep(cfgA);
    const sim::SweepResult b = sim::runCrashSweep(cfgB);
    EXPECT_TRUE(a.passed);
    EXPECT_TRUE(b.passed);
    EXPECT_GT(recA.totalRecorded(), 0u);  // every fired crash is an event
    EXPECT_EQ(obs::renderFlightEvents(recA.snapshot()),
              obs::renderFlightEvents(recB.snapshot()));
}

TEST(FlightDeterminism, FleetBundleBytesIdenticalAtEveryPoolSize) {
    // A member crashed at epoch 0 with no rejoin plus a stalled member:
    // deterministic verdict traffic and store/alarm hooks from the
    // parallel phase, reassembled in member order. The recorder stream —
    // and therefore a bundle built from it — must not depend on the pool.
    std::string reference;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        rc::parallel::Pool pool(threads);
        obs::FlightRecorder rec(FlightRecorder::kDefaultCapacity);
        obs::Registry registry;
        fleet::FleetConfig cfg;
        cfg.seed = 11;
        cfg.members = 5;
        cfg.quorum = 3;
        cfg.epochs = 12;
        cfg.faulty = fleet::MemberFaultSpec::parseSet("1:crash:3:4,2:stall:6");
        cfg.pool = &pool;
        cfg.recorder = &rec;
        cfg.registry = &registry;
        const fleet::FleetResult r = fleet::runFleet(cfg);
        EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
        const std::string bundle = obs::buildPostmortem(rec, &registry, "test", {});
        if (reference.empty()) {
            reference = bundle;
        } else {
            EXPECT_EQ(bundle, reference) << "pool size " << threads;
        }
    }
    EXPECT_FALSE(reference.empty());
}

TEST(FlightDeterminism, PassingFleetCapturesNoBundles) {
    // Bundles are a failure artifact: a clean run must carry none.
    fleet::FleetConfig cfg;
    cfg.seed = 4;
    cfg.members = 3;
    cfg.quorum = 2;
    cfg.epochs = 6;
    const fleet::FleetResult r = fleet::runFleet(cfg);
    EXPECT_TRUE(r.passed) << (r.violations.empty() ? "" : r.violations.front());
    EXPECT_TRUE(r.postmortems.empty());
}

}  // namespace
}  // namespace rpkic
