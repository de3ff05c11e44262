// rc::parallel unit tests: exactly-once index execution, ordered
// reassembly, lowest-index error semantics, observer accounting, and the
// RC_THREADS / --threads parsing policy. The cross-thread TSan stress
// lives in parallel_threads_test.cpp; the detector-level differential
// suite in detector_parallel_test.cpp.
#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "util/errors.hpp"

namespace rc::parallel {
namespace {

TEST(Pool, RunsEveryIndexExactlyOnce) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                      std::size_t{8}}) {
        Pool pool(threads);
        EXPECT_EQ(pool.threads(), threads);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64},
              std::size_t{1000}}) {
            std::vector<std::atomic<int>> hits(n);
            pool.parallelFor(n, [&](std::size_t i) { hits[i].fetch_add(1); });
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                             << " index=" << i;
            }
        }
    }
}

TEST(Pool, SizeOneRunsInlineOnTheCallingThread) {
    Pool pool(1);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> seen(16);
    pool.parallelFor(seen.size(), [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
    for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(Pool, ParallelMapPreservesIndexOrder) {
    Pool pool(4);
    const std::vector<std::uint64_t> out =
        pool.parallelMap<std::uint64_t>(257, [](std::size_t i) {
            return static_cast<std::uint64_t>(i) * i;
        });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<std::uint64_t>(i) * i);
    }
}

TEST(Pool, LowestIndexExceptionWinsAndAllIndicesRun) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        Pool pool(threads);
        std::atomic<std::size_t> attempts{0};
        try {
            pool.parallelFor(100, [&](std::size_t i) {
                attempts.fetch_add(1);
                if (i == 17 || i == 18 || i == 90) {
                    throw rpkic::UsageError("boom at " + std::to_string(i));
                }
            });
            FAIL() << "expected the body's exception to propagate";
        } catch (const rpkic::UsageError& e) {
            EXPECT_NE(std::string(e.what()).find("boom at 17"), std::string::npos)
                << "threads=" << threads << ": got '" << e.what() << "'";
        }
        EXPECT_EQ(attempts.load(), 100u)
            << "every index must be attempted even when some throw";
    }
}

TEST(Pool, ReusableAcrossManyJobs) {
    Pool pool(4);
    std::uint64_t total = 0;
    for (int round = 0; round < 200; ++round) {
        std::atomic<std::uint64_t> sum{0};
        pool.parallelFor(round % 7 + 1, [&](std::size_t i) {
            sum.fetch_add(i + 1);
        });
        total += sum.load();
    }
    EXPECT_GT(total, 0u);
}

class CountingObserver final : public Observer {
public:
    void poolStarted(std::size_t threads) override { poolThreads_.store(threads); }
    void taskEnqueued(std::size_t queueDepth) override {
        enqueued_.fetch_add(1);
        lastDepth_.store(queueDepth);
    }
    std::uint64_t taskStarted() override { return started_.fetch_add(1) + 1; }
    void taskFinished(std::uint64_t startToken, std::size_t queueDepth) override {
        EXPECT_GT(startToken, 0u);
        finished_.fetch_add(1);
        lastDepth_.store(queueDepth);
    }

    std::atomic<std::size_t> poolThreads_{0};
    std::atomic<std::uint64_t> enqueued_{0};
    std::atomic<std::uint64_t> started_{0};
    std::atomic<std::uint64_t> finished_{0};
    std::atomic<std::size_t> lastDepth_{0};
};

TEST(Pool, ObserverSeesEveryJob) {
    CountingObserver obs;
    {
        Pool pool(4, &obs);
        EXPECT_EQ(obs.poolThreads_.load(), 4u);
        for (int i = 0; i < 10; ++i) {
            pool.parallelFor(32, [](std::size_t) {});
        }
    }
    EXPECT_EQ(obs.started_.load(), 10u);
    EXPECT_EQ(obs.finished_.load(), 10u);
    EXPECT_EQ(obs.enqueued_.load(), 10u);  // all 10 jobs went through the queue
    EXPECT_EQ(obs.lastDepth_.load(), 0u);  // drained when the last job finished
}

TEST(Pool, InlineJobsSkipTheQueueButStillReport) {
    CountingObserver obs;
    Pool pool(1, &obs);
    pool.parallelFor(8, [](std::size_t) {});
    EXPECT_EQ(obs.started_.load(), 1u);
    EXPECT_EQ(obs.finished_.load(), 1u);
    EXPECT_EQ(obs.enqueued_.load(), 0u);  // sequential mode never enqueues
}

TEST(ThreadSpec, ParsesPositiveIntegers) {
    EXPECT_EQ(parseThreadSpec("1"), 1u);
    EXPECT_EQ(parseThreadSpec("8"), 8u);
    EXPECT_EQ(parseThreadSpec("256"), 256u);
}

TEST(ThreadSpec, ZeroMeansHardwareThreads) {
    EXPECT_EQ(parseThreadSpec("0"), hardwareThreads());
    EXPECT_GE(hardwareThreads(), 1u);
}

TEST(ThreadSpec, RejectsMalformedAndOversized) {
    EXPECT_THROW(parseThreadSpec(""), rpkic::UsageError);
    EXPECT_THROW(parseThreadSpec("four"), rpkic::UsageError);
    EXPECT_THROW(parseThreadSpec("4x"), rpkic::UsageError);
    EXPECT_THROW(parseThreadSpec("-2"), rpkic::UsageError);
    EXPECT_THROW(parseThreadSpec("257"), rpkic::UsageError);
    EXPECT_THROW(parseThreadSpec("99999999999999999999"), rpkic::UsageError);
}

TEST(ThreadSpec, DefaultThreadCountFollowsEnv) {
    // setenv/unsetenv here is safe: gtest runs tests sequentially and no
    // pool construction races this test.
    ASSERT_EQ(unsetenv("RC_THREADS"), 0);
    EXPECT_EQ(defaultThreadCount(), 1u) << "unset env means sequential";
    ASSERT_EQ(setenv("RC_THREADS", "4", 1), 0);
    EXPECT_EQ(defaultThreadCount(), 4u);
    ASSERT_EQ(setenv("RC_THREADS", "0", 1), 0);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    ASSERT_EQ(setenv("RC_THREADS", "not-a-number", 1), 0);
    EXPECT_EQ(defaultThreadCount(), 1u) << "a broken env var must not fail the process";
    ASSERT_EQ(unsetenv("RC_THREADS"), 0);
}

TEST(DefaultPool, ConfigureReplacesThePool) {
    configureDefaultPool(3);
    EXPECT_EQ(defaultPool().threads(), 3u);
    std::atomic<std::size_t> hits{0};
    defaultPool().parallelFor(50, [&](std::size_t) { hits.fetch_add(1); });
    EXPECT_EQ(hits.load(), 50u);
    configureDefaultPool(1);  // restore the process default for later tests
    EXPECT_EQ(defaultPool().threads(), 1u);
}

}  // namespace
}  // namespace rc::parallel
