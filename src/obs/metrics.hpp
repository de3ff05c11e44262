// rpkiscope metrics: a zero-dependency registry of counters, gauges, and
// log-bucketed histograms with Prometheus text exposition.
//
// Design:
//  * Instruments are registered once per (name, labels) pair and returned
//    by reference; references stay valid until Registry::reset(). Hot
//    paths cache the reference and touch one relaxed atomic per event.
//  * Exposition is fully deterministic: families sorted by name, series
//    sorted by canonical label string, doubles rendered with a fixed
//    format. Two runs with identical event sequences (same seed, logical
//    clock) produce byte-identical dumps — the property the chaos soak's
//    determinism check rides on.
//  * lintPrometheus() is the same checker CI runs over the soak's
//    --metrics-out artifact: it validates names, label escaping, HELP/TYPE
//    headers, histogram bucket monotonicity, and counter naming.
//
// The metric name catalogue lives in docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace rpkic::obs {

/// Label set as (name, value) pairs; canonicalized (sorted by name) on
/// registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing 64-bit counter.
class Counter {
public:
    void inc(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Signed instantaneous value.
class Gauge {
public:
    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Log-bucketed histogram layout: finite upper bounds are
/// firstBound * growth^i for i in [0, bucketCount), plus the implicit
/// +Inf bucket. The default spans 1µs .. ~4.3s in factor-2 steps when
/// observations are in seconds.
struct HistogramSpec {
    double firstBound = 1e-6;
    double growth = 2.0;
    int bucketCount = 32;

    bool operator==(const HistogramSpec&) const = default;
};

class Histogram {
public:
    explicit Histogram(HistogramSpec spec);

    void observe(double v);
    void observeNanos(std::uint64_t nanos) { observe(static_cast<double>(nanos) * 1e-9); }

    const std::vector<double>& bounds() const { return bounds_; }
    /// Count in bucket i (0..bucketCount inclusive; the last is +Inf).
    std::uint64_t bucketCount(std::size_t i) const {
        return counts_[i].load(std::memory_order_relaxed);
    }
    std::uint64_t totalCount() const { return count_.load(std::memory_order_relaxed); }
    double sum() const;
    const HistogramSpec& spec() const { return spec_; }

private:
    HistogramSpec spec_;
    std::vector<double> bounds_;                    // finite upper bounds, ascending
    std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1 (+Inf)
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
};

/// Instrument kind, shared by the registry internals and snapshots.
enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

std::string_view toString(MetricKind kind);

/// One series captured at snapshot time. For histograms `buckets` holds
/// the per-bucket (non-cumulative) counts including the trailing +Inf
/// bucket, and `count` is derived as the sum of those single atomic
/// reads — never a second load of the histogram's total — so the
/// rendered +Inf bucket always equals `_count` and cumulativity holds
/// even when writers race the snapshot.
struct SeriesSnapshot {
    std::string labels;                  ///< canonical label key ("" if none)
    double value = 0.0;                  ///< counters/gauges
    std::vector<std::uint64_t> buckets;  ///< histograms: bounds.size() + 1
    std::uint64_t count = 0;             ///< histograms: sum of `buckets`
    double sum = 0.0;                    ///< histograms
};

struct FamilySnapshot {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    std::vector<double> bounds;          ///< histograms: finite upper bounds
    std::vector<SeriesSnapshot> series;  ///< sorted by label key
};

/// A torn-read-free copy of a registry: plain data, no atomics, safe to
/// render or inspect while the source registry keeps taking writes.
/// Families sorted by name, series by canonical label string.
struct RegistrySnapshot {
    std::vector<FamilySnapshot> families;

    /// Prometheus text exposition format 0.0.4. Deterministic; lint-clean
    /// by construction (see SeriesSnapshot on the +Inf/_count agreement).
    std::string renderPrometheus() const;

    const FamilySnapshot* find(const std::string& name) const;
};

/// Instrument registry. Thread-safe; lookup takes a mutex, so hot paths
/// must cache the returned reference.
class Registry {
public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// Registers (or finds) a counter. Throws LogicError if `name` is
    /// already registered as a different type or is not a valid metric
    /// name (counters must end in "_total").
    Counter& counter(const std::string& name, const std::string& help,
                     const Labels& labels = {}) RC_EXCLUDES(mutex_);
    Gauge& gauge(const std::string& name, const std::string& help, const Labels& labels = {})
        RC_EXCLUDES(mutex_);
    Histogram& histogram(const std::string& name, const std::string& help,
                         const Labels& labels = {}, HistogramSpec spec = {})
        RC_EXCLUDES(mutex_);

    /// Captures a consistent snapshot of every family. Each histogram
    /// bucket is read exactly once; series counts are derived from those
    /// reads, so concurrent observe() calls can never produce a torn
    /// family (+Inf != _count) in the result. Both live scraping
    /// (/metrics) and the end-of-run dumps (--metrics-out) go through
    /// this path.
    RegistrySnapshot snapshot() const RC_EXCLUDES(mutex_);

    /// Prometheus text exposition format 0.0.4. Deterministic.
    /// Equivalent to snapshot().renderPrometheus().
    std::string renderPrometheus() const RC_EXCLUDES(mutex_);

    /// Drops every instrument. Invalidates all references previously
    /// returned — callers must not hold cached instruments across reset()
    /// (tests only; production registries live for the process).
    void reset() RC_EXCLUDES(mutex_);

    /// The process-wide default registry the instrumentation layer uses.
    static Registry& global();

private:
    using Kind = MetricKind;

    struct Family {
        Kind kind;
        std::string help;
        HistogramSpec spec;  // histograms only
        std::map<std::string, std::unique_ptr<Counter>> counters;     // by label key
        std::map<std::string, std::unique_ptr<Gauge>> gauges;         // by label key
        std::map<std::string, std::unique_ptr<Histogram>> histograms; // by label key
    };

    Family& familyFor(const std::string& name, const std::string& help, Kind kind,
                      const HistogramSpec* spec) RC_REQUIRES(mutex_);

    mutable rc::Mutex mutex_;
    std::map<std::string, Family> families_ RC_GUARDED_BY(mutex_);
};

/// Deterministic number rendering used by every exposition path:
/// integers exactly, everything else with the shortest round-tripping
/// precision, infinities as +Inf/-Inf.
std::string formatMetricValue(double v);

/// True iff `name` is a valid Prometheus metric name.
bool isValidMetricName(const std::string& name);
/// True iff `name` is a valid Prometheus label name.
bool isValidLabelName(const std::string& name);
/// Escapes a label value for exposition (backslash, quote, newline).
std::string escapeLabelValue(const std::string& value);
/// Escapes `s` for a JSON string literal (Chrome traces).
std::string jsonEscape(std::string_view s);
/// Canonical `{a="x",b="y"}` rendering of a sorted label set ("" if empty).
std::string renderLabels(const Labels& labels);

/// One parsed exposition sample (lint/test helper).
struct PromSample {
    std::string name;        ///< sample name as written (incl. _bucket etc.)
    std::string labels;      ///< canonical text between the braces ("" if none)
    double value = 0.0;
};

/// Parses exposition text into samples. Throws ParseError on syntax errors.
std::vector<PromSample> parsePrometheus(const std::string& text);

/// Lints exposition text: returns a list of problems (empty = clean).
/// Checks line syntax, metric/label names, label-value escaping, HELP/TYPE
/// presence and order, counter naming + non-negativity, histogram bucket
/// cumulativity and +Inf/_count agreement, and duplicate series.
std::vector<std::string> lintPrometheus(const std::string& text);

}  // namespace rpkic::obs
