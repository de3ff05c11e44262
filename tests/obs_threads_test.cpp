// Multi-threaded stress over the observability layer — the pre-flight
// check for parallel/sharded sync (ROADMAP): before any worker pool is
// allowed to share the metrics registry, trace ring, and logger, those
// three must survive N threads hammering them concurrently with exact
// accounting. CI runs this binary under ThreadSanitizer
// (-DRC_SANITIZE=thread), which turns any data race the clang
// thread-safety annotations missed into a hard failure; in regular builds
// it still verifies the cross-thread accounting invariants.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"

namespace rpkic {
namespace {

constexpr int kThreads = 4;

/// Runs `fn(threadIndex)` on kThreads threads and joins them.
void inParallel(const std::function<void(int)>& fn) {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&fn, t] { fn(t); });
    }
    for (std::thread& th : threads) th.join();
}

// --- registry ---------------------------------------------------------------

TEST(ObsThreads, RegistryCountersExactUnderContention) {
    obs::Registry reg;
    constexpr int kIters = 20000;
    inParallel([&](int t) {
        // Half the increments go through the slow registration path (mutex
        // + map lookup), half through a cached reference (relaxed atomic):
        // both patterns appear in the sync engine.
        obs::Counter& cached = reg.counter("rc_stress_cached_total", "cached-ref increments");
        for (int i = 0; i < kIters; ++i) {
            if (i % 2 == 0) {
                reg.counter("rc_stress_lookup_total", "lookup-path increments").inc();
            } else {
                cached.inc();
            }
            if (i % 4 == 0) {
                reg.gauge("rc_stress_depth", "per-thread gauge",
                          {{"thread", std::to_string(t)}})
                    .set(i);
            }
        }
    });
    EXPECT_EQ(reg.counter("rc_stress_lookup_total", "").value(),
              static_cast<std::uint64_t>(kThreads) * (kIters / 2));
    EXPECT_EQ(reg.counter("rc_stress_cached_total", "").value(),
              static_cast<std::uint64_t>(kThreads) * (kIters / 2));
}

TEST(ObsThreads, RegistryHistogramAccountingWhileRendering) {
    obs::Registry reg;
    constexpr int kIters = 8000;
    std::atomic<bool> stop{false};
    // A render thread repeatedly serializes the registry while writers
    // register and observe — the exporter path must never tear.
    std::thread render([&] {
        std::size_t renders = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const std::string prom = reg.renderPrometheus();
            // Whatever snapshot we caught must lint clean.
            if (++renders % 16 == 0 && !prom.empty()) {
                EXPECT_TRUE(obs::lintPrometheus(prom).empty());
            }
        }
    });
    inParallel([&](int t) {
        obs::Histogram& hist =
            reg.histogram("rc_stress_latency_seconds", "threaded observations");
        for (int i = 0; i < kIters; ++i) {
            hist.observe(1e-6 * static_cast<double>((t + 1) * (i % 1000)));
        }
    });
    stop.store(true, std::memory_order_relaxed);
    render.join();
    EXPECT_EQ(reg.histogram("rc_stress_latency_seconds", "").totalCount(),
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_TRUE(obs::lintPrometheus(reg.renderPrometheus()).empty());
}

TEST(ObsThreads, SnapshotScrapeWhileInstrumenting) {
    // The /metrics path under contention: scraper threads loop
    // snapshot().renderPrometheus() while writers mint series and
    // observe. Every caught exposition must lint clean — in particular a
    // histogram's rendered +Inf bucket must equal its _count even when
    // observe() races the snapshot (torn-read freedom, satellite 1).
    obs::Registry reg;
    constexpr int kIters = 4000;
    std::atomic<bool> stop{false};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
        scrapers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const obs::RegistrySnapshot snap = reg.snapshot();
                const std::string prom = snap.renderPrometheus();
                for (const std::string& p : obs::lintPrometheus(prom)) {
                    ADD_FAILURE() << "lint: " << p;
                }
                for (const obs::FamilySnapshot& fam : snap.families) {
                    for (const obs::SeriesSnapshot& series : fam.series) {
                        if (fam.kind != obs::MetricKind::Histogram) continue;
                        std::uint64_t sum = 0;
                        for (const std::uint64_t b : series.buckets) sum += b;
                        EXPECT_EQ(sum, series.count) << fam.name;
                    }
                }
            }
        });
    }
    inParallel([&](int t) {
        obs::Histogram& hist = reg.histogram("rc_stress_scrape_seconds", "obs");
        for (int i = 0; i < kIters; ++i) {
            hist.observe(1e-5 * static_cast<double>(i % 500));
            reg.counter("rc_stress_scrape_total", "ops",
                        {{"thread", std::to_string(t)}})
                .inc();
        }
    });
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& th : scrapers) th.join();
    EXPECT_EQ(reg.histogram("rc_stress_scrape_seconds", "").totalCount(),
              static_cast<std::uint64_t>(kThreads) * kIters);
}

// --- flight recorder --------------------------------------------------------

TEST(ObsThreads, FlightRecorderExactAccountingUnderContention) {
    obs::Registry reg;
    obs::FlightRecorder rec(/*capacity=*/256);  // small ring: force drops
    rec.attachMetrics(&reg);
    constexpr int kEvents = 5000;
    std::atomic<bool> stop{false};
    // A reader loops snapshot() + openScopes() while writers record and
    // push/pop scopes — the /flightz render path under contention.
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const auto events = rec.snapshot();
            ASSERT_LE(events.size(), rec.capacity());
            for (std::size_t i = 1; i < events.size(); ++i) {
                ASSERT_LT(events[i - 1].seq, events[i].seq) << "snapshot out of order";
            }
            (void)rec.openScopes();
        }
    });
    inParallel([&](int t) {
        for (int i = 0; i < kEvents; ++i) {
            if (i % 16 == 0) {
                const obs::Scope scope("stress.scope", "stress", nullptr, &rec,
                                       "t=" + std::to_string(t));
                rec.record(obs::FlightKind::LogLine, "stress", std::to_string(i));
            } else {
                rec.record(obs::FlightKind::Alarm, "stress", std::to_string(i));
            }
        }
    });
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    // Every record landed exactly once: retained + dropped = recorded,
    // and the scope events (one SpanClose per scope) are included.
    const std::uint64_t scopesPerThread = (kEvents + 15) / 16;  // i % 16 == 0 hits
    const auto expected =
        static_cast<std::uint64_t>(kThreads) * (kEvents + scopesPerThread);
    EXPECT_EQ(rec.totalRecorded(), expected);
    EXPECT_EQ(rec.size() + rec.dropped(), expected);
    EXPECT_TRUE(rec.openScopes().empty());
}

// --- tracer -----------------------------------------------------------------

TEST(ObsThreads, TracerRingExactAccounting) {
    obs::Tracer tracer(1024);  // small ring: force wrap-around + drops
    tracer.setEnabled(true);
    constexpr int kSpans = 5000;
    inParallel([&](int) {
        for (int i = 0; i < kSpans; ++i) {
            const obs::Scope span(tracer, "stress.span", "test");
        }
    });
    const std::uint64_t total = static_cast<std::uint64_t>(kThreads) * kSpans;
    EXPECT_EQ(tracer.size(), tracer.capacity());
    EXPECT_EQ(tracer.dropped(), total - tracer.capacity());
    // The retained window is the most recent events: sequence numbers must
    // be unique and the render must be well-formed JSON-ish.
    const std::vector<obs::TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), tracer.capacity());
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
    const std::string trace = tracer.renderChromeTrace();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsThreads, TracerSurvivesConcurrentSnapshotAndClear) {
    obs::Tracer tracer(512);
    tracer.setEnabled(true);
    std::atomic<bool> stop{false};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            EXPECT_LE(tracer.snapshot().size(), tracer.capacity());
            (void)tracer.renderChromeTrace();
        }
    });
    std::thread clearer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            tracer.clear();
            std::this_thread::yield();
        }
    });
    inParallel([&](int) {
        for (int i = 0; i < 4000; ++i) {
            const obs::Scope span(tracer, "stress.race", "test");
        }
    });
    stop.store(true, std::memory_order_relaxed);
    reader.join();
    clearer.join();
    EXPECT_LE(tracer.size(), tracer.capacity());
}

// --- logger -----------------------------------------------------------------

TEST(ObsThreads, LoggerExactDeliveryUnderContention) {
    obs::Logger logger;
    logger.setLevel(obs::LogLevel::Info);
    logger.setRateLimit(0, 1);  // no limiting: every line must arrive
    std::atomic<std::uint64_t> delivered{0};
    logger.setSink([&](const std::string& line) {
        ASSERT_NE(line.find("event=stress"), std::string::npos);
        delivered.fetch_add(1, std::memory_order_relaxed);
    });
    constexpr int kLines = 3000;
    inParallel([&](int t) {
        for (int i = 0; i < kLines; ++i) {
            logger.log(obs::LogLevel::Info, "threads", "stress",
                       {{"thread", std::to_string(t)}, {"i", std::to_string(i)}});
        }
    });
    EXPECT_EQ(delivered.load(), static_cast<std::uint64_t>(kThreads) * kLines);
    EXPECT_EQ(logger.suppressed(), 0u);
}

TEST(ObsThreads, LoggerRateLimitAccountingUnderContention) {
    obs::Logger logger;
    logger.setLevel(obs::LogLevel::Info);
    // One enormous window: exactly `burst` lines may ever be emitted.
    constexpr std::uint32_t kBurst = 64;
    logger.setRateLimit(kBurst, ~0ull);
    std::atomic<std::uint64_t> delivered{0};
    logger.setSink([&](const std::string&) {
        delivered.fetch_add(1, std::memory_order_relaxed);
    });
    constexpr int kLines = 2000;
    // Level churn from a side thread: readers of level_ must be
    // synchronized with the writers (this is what TSan checks).
    std::atomic<bool> stop{false};
    std::thread churn([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            logger.setLevel(obs::LogLevel::Info);
            (void)logger.enabled(obs::LogLevel::Warn);
            std::this_thread::yield();
        }
    });
    inParallel([&](int) {
        for (int i = 0; i < kLines; ++i) {
            logger.log(obs::LogLevel::Warn, "threads", "limited", {});
        }
    });
    stop.store(true, std::memory_order_relaxed);
    churn.join();
    EXPECT_EQ(delivered.load(), kBurst);
    EXPECT_EQ(logger.suppressed(),
              static_cast<std::uint64_t>(kThreads) * kLines - kBurst);
}

// --- clock + runtime switch -------------------------------------------------

TEST(ObsThreads, LogicalClockMonotoneAcrossThreads) {
    obs::LogicalTimeSource logical(10);
    obs::setTimeSource(&logical);
    constexpr int kReads = 20000;
    inParallel([&](int) {
        std::uint64_t prev = 0;
        for (int i = 0; i < kReads; ++i) {
            const std::uint64_t now = obs::nowNanos();
            ASSERT_GT(now, prev);  // strictly monotone per thread
            prev = now;
        }
    });
    obs::setTimeSource(nullptr);
    // Every tick was handed out exactly once.
    EXPECT_EQ(logical.reads(), static_cast<std::uint64_t>(kThreads) * kReads);
}

TEST(ObsThreads, RuntimeSwitchRacesMacroSites) {
    obs::Registry reg;
    obs::Counter& counter = reg.counter("rc_stress_switch_total", "macro-gated");
    obs::Histogram& hist = reg.histogram("rc_stress_switch_seconds", "macro-gated");
    std::atomic<bool> stop{false};
    std::thread toggler([&] {
        bool on = true;
        while (!stop.load(std::memory_order_relaxed)) {
            obs::setRuntimeEnabled(on);
            on = !on;
            std::this_thread::yield();
        }
    });
    inParallel([&](int) {
        for (int i = 0; i < 20000; ++i) {
            RC_OBS_COUNT(counter, 1);
            RC_OBS_OBSERVE(hist, 1e-6);
        }
    });
    stop.store(true, std::memory_order_relaxed);
    toggler.join();
    obs::setRuntimeEnabled(true);
    // Under toggling the counts are not exact — but they can never exceed
    // the attempt count.
    EXPECT_LE(counter.value(), static_cast<std::uint64_t>(kThreads) * 20000);
    EXPECT_LE(hist.totalCount(), static_cast<std::uint64_t>(kThreads) * 20000);
}

}  // namespace
}  // namespace rpkic
