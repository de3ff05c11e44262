// rc::parallel — a small fixed-size thread pool with deterministic
// fan-out/fan-in primitives for the detector's hot paths.
//
// Design goals, in order:
//
//  1. *Determinism*: parallelFor/parallelMap partition an index space
//     [0, n) across workers, but every observable result is reassembled
//     in index order. Code that tallies with commutative operations and
//     merges per-index rows in order produces byte-identical output at
//     every thread count — the contract the detector's differential
//     tests enforce (docs/PERFORMANCE.md).
//  2. *Zero-cost sequential mode*: a pool of size 1 spawns no threads and
//     runs bodies inline on the calling thread. The default pool size is
//     1 unless RC_THREADS says otherwise, so single-threaded callers pay
//     nothing and all pre-existing determinism properties (byte-identical
//     soak/detector telemetry dumps under the logical clock) still hold.
//  3. *Caller participation*: a pool of size T runs work on T strands —
//     T-1 resident workers plus the submitting thread — so Pool(8) means
//     eight-way concurrency, not nine threads.
//
// Error semantics: every index of a parallelFor is always attempted; if
// bodies throw, the exception raised at the *lowest* index is rethrown on
// the submitting thread after the job drains. (Failing fast would make the
// reported error depend on scheduling; lowest-index-wins keeps failures as
// deterministic as successes.)
//
// Observability is injected, not linked: rc_util sits below rc_obs, so the
// pool reports pool size / queue depth / task lifetimes through the
// Observer interface and src/obs/parallel_metrics.* adapts that onto the
// rc_parallel_* metric families (docs/OBSERVABILITY.md).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rc::parallel {

/// Telemetry sink for pool events. The default implementation ignores
/// everything; obs-linked binaries install the rc_parallel_* adapter from
/// src/obs/parallel_metrics.hpp. Implementations must be thread-safe.
class Observer {
public:
    virtual ~Observer() = default;
    /// A pool started with `threads` strands of concurrency.
    virtual void poolStarted(std::size_t threads) { (void)threads; }
    /// A job entered the queue; `queueDepth` is the depth after the push.
    virtual void taskEnqueued(std::size_t queueDepth) { (void)queueDepth; }
    /// A job is about to run. The returned token is handed back to
    /// taskFinished — adapters typically return a clock reading.
    virtual std::uint64_t taskStarted() { return 0; }
    /// A job completed; `queueDepth` is the depth after removal.
    virtual void taskFinished(std::uint64_t startToken, std::size_t queueDepth) {
        (void)startToken;
        (void)queueDepth;
    }
};

/// Fixed-size thread pool. Construction spawns threads-1 resident workers
/// (none for a size-1 pool); destruction joins them. parallelFor may be
/// called concurrently from multiple threads; each caller participates in
/// draining its own job.
class Pool {
public:
    /// threads == 0 selects defaultThreadCount() (the RC_THREADS policy).
    explicit Pool(std::size_t threads = 0, Observer* observer = nullptr);
    ~Pool();

    Pool(const Pool&) = delete;
    Pool& operator=(const Pool&) = delete;

    /// Total strands of concurrency (resident workers + the caller).
    std::size_t threads() const { return threadCount_; }

    /// Runs body(i) for every i in [0, n), blocking until all complete.
    /// Bodies run concurrently in unspecified order; writes to distinct
    /// per-index slots need no synchronization (completion of the job
    /// happens-before parallelFor returns). Always attempts every index;
    /// rethrows the lowest-index exception, if any.
    void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

    /// Ordered map: returns {fn(0), fn(1), ..., fn(n-1)} with results in
    /// index order regardless of execution order. R must be default-
    /// constructible and movable.
    template <typename R>
    std::vector<R> parallelMap(std::size_t n, const std::function<R(std::size_t)>& fn) {
        std::vector<R> out(n);
        parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

private:
    struct Job;

    void workerLoop();
    /// Claims and runs chunks of `job` until its index space is exhausted.
    void runSlices(Job& job);

    std::size_t threadCount_;
    Observer* observer_;

    std::mutex mutex_;
    std::condition_variable workAvailable_;  // workers wait here
    std::condition_variable jobComplete_;    // submitters wait here
    // Jobs are heap-held behind shared_ptr: a worker that grabs a job just
    // as its last index completes may touch the claim counter after the
    // submitter has returned, so the submitter's stack cannot own the Job.
    std::deque<std::shared_ptr<Job>> queue_;  // guarded by mutex_
    bool stopping_ = false;                  // guarded by mutex_
    std::vector<std::thread> workers_;
};

/// Threads the hardware reports (>= 1).
std::size_t hardwareThreads();

/// Parses a thread-count spec: a positive integer, or 0 meaning "all
/// hardware threads". Throws rpkic::UsageError on malformed input or
/// values above kMaxThreads. (Shared by the --threads flags and the
/// RC_THREADS env var.)
std::size_t parseThreadSpec(const std::string& spec);

/// Hard ceiling on configurable pool sizes.
inline constexpr std::size_t kMaxThreads = 256;

/// The process-wide default thread count: RC_THREADS (via parseThreadSpec)
/// when set and valid, else 1. A malformed RC_THREADS falls back to 1
/// rather than failing the process. Reads the environment on every call.
std::size_t defaultThreadCount();

/// The process-wide shared pool, constructed on first use with
/// defaultThreadCount() and the configured default observer. Library code
/// (the detector) routes through this pool unless handed an explicit one.
Pool& defaultPool();

/// Replaces the default pool (e.g. from a --threads flag). threads == 0
/// selects defaultThreadCount(); observer == nullptr keeps the previously
/// configured default observer. Call during startup, before other threads
/// hold references to defaultPool() — reconfiguration invalidates them.
void configureDefaultPool(std::size_t threads, Observer* observer = nullptr);

}  // namespace rc::parallel
