// Sets of integers represented as sorted, disjoint, inclusive intervals.
//
// This is the workhorse of the paper's §4.1 detector: "we represent
// [triangles] using interval trees ... we can use interval trees to
// efficiently perform unions, intersections, and complements of sets of
// triangles". A sorted interval vector gives the same O(n log n) bounds
// with much better constants than a pointer-based tree.
//
// Intervals are inclusive [lo, hi] so that a full address space
// (e.g. [0, 2^128-1]) is representable without overflow.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/errors.hpp"

namespace rpkic {

template <typename T>
struct Interval {
    T lo{};
    T hi{};  // inclusive

    friend bool operator==(const Interval&, const Interval&) = default;
};

/// An immutable-style ordered set of T, stored as disjoint inclusive
/// intervals in ascending order. T must behave like an unsigned integer
/// (U128 or std::uint64_t).
template <typename T>
class IntervalSet {
public:
    IntervalSet() = default;

    static IntervalSet single(T lo, T hi) {
        if (hi < lo) throw UsageError("interval hi < lo");
        IntervalSet s;
        s.intervals_.push_back({lo, hi});
        return s;
    }

    bool empty() const { return intervals_.empty(); }
    std::size_t intervalCount() const { return intervals_.size(); }
    const std::vector<Interval<T>>& intervals() const { return intervals_; }

    bool contains(T x) const {
        auto it = std::upper_bound(intervals_.begin(), intervals_.end(), x,
                                   [](T v, const Interval<T>& iv) { return v < iv.lo; });
        if (it == intervals_.begin()) return false;
        --it;
        return !(it->hi < x);
    }

    /// True iff [lo, hi] is entirely inside one stored interval.
    bool containsRange(T lo, T hi) const {
        auto it = std::upper_bound(intervals_.begin(), intervals_.end(), lo,
                                   [](T v, const Interval<T>& iv) { return v < iv.lo; });
        if (it == intervals_.begin()) return false;
        --it;
        return !(it->hi < hi) && !(lo < it->lo);
    }

    /// True iff [lo, hi] intersects the set.
    bool intersectsRange(T lo, T hi) const {
        auto it = std::upper_bound(intervals_.begin(), intervals_.end(), hi,
                                   [](T v, const Interval<T>& iv) { return v < iv.lo; });
        if (it == intervals_.begin()) return false;
        --it;
        return !(it->hi < lo);
    }

    /// Builds a set from arbitrary (possibly overlapping, unordered)
    /// intervals in O(n log n). Preferred over repeated insert() for bulk
    /// construction, e.g. when the detector ingests every ROA of a state.
    static IntervalSet fromIntervals(std::vector<Interval<T>> raw) {
        std::sort(raw.begin(), raw.end(),
                  [](const Interval<T>& a, const Interval<T>& b) { return a.lo < b.lo; });
        IntervalSet out;
        out.intervals_.reserve(raw.size());
        for (const auto& iv : raw) {
            if (iv.hi < iv.lo) throw UsageError("interval hi < lo");
            out.take(iv);
        }
        return out;
    }

    /// Builds a set from possibly overlapping intervals already ordered by
    /// lo, in one linear pass: the order is RC_CHECKed, not sorted.
    static IntervalSet fromSorted(std::span<const Interval<T>> byLo) {
        IntervalSet out;
        for (std::size_t i = 0; i < byLo.size(); ++i) {
            RC_CHECK(!(byLo[i].hi < byLo[i].lo), "interval hi < lo");
            RC_CHECK(i == 0 || !(byLo[i].lo < byLo[i - 1].lo), "intervals not ordered by lo");
            out.take(byLo[i]);
        }
        return out;
    }

    /// Adds [lo, hi], merging with adjacent/overlapping intervals.
    /// O(log n + merged) via binary search.
    void insert(T lo, T hi) {
        if (hi < lo) throw UsageError("interval hi < lo");
        // First interval whose hi >= lo (candidates for overlap), then step
        // back once to catch adjacency at lo-1 (guarding lo == 0 underflow).
        auto first = std::lower_bound(intervals_.begin(), intervals_.end(), lo,
                                      [](const Interval<T>& iv, T v) { return iv.hi < v; });
        if (first != intervals_.begin()) {
            auto prev = first - 1;
            if (!(lo == T{0}) && prev->hi == lo - T{1}) first = prev;
        }
        auto last = first;
        T newLo = lo;
        T newHi = hi;
        while (last != intervals_.end()) {
            const T l = last->lo;
            const bool mergeable = !(hi < l) || (!(hi == maxValue()) && l == hi + T{1});
            if (!mergeable) break;
            newLo = std::min(newLo, last->lo);
            newHi = std::max(newHi, last->hi);
            ++last;
        }
        if (first == last) {
            intervals_.insert(first, {newLo, newHi});
        } else {
            *first = {newLo, newHi};
            intervals_.erase(first + 1, last);
        }
    }

    /// Set union (linear merge).
    IntervalSet unionWith(const IntervalSet& other) const {
        IntervalSet out;
        auto a = intervals_.begin();
        auto b = other.intervals_.begin();
        while (a != intervals_.end() && b != other.intervals_.end()) {
            if (a->lo < b->lo || (a->lo == b->lo && a->hi < b->hi)) out.take(*a++);
            else out.take(*b++);
        }
        while (a != intervals_.end()) out.take(*a++);
        while (b != other.intervals_.end()) out.take(*b++);
        return out;
    }

    /// Set intersection. Walks the smaller set and gallops through the
    /// larger one, so a small set against a large one costs
    /// O(small * log large) instead of a scan of both.
    IntervalSet intersect(const IntervalSet& other) const {
        const bool mine = intervals_.size() <= other.intervals_.size();
        const std::vector<Interval<T>>& small = mine ? intervals_ : other.intervals_;
        const std::vector<Interval<T>>& large = mine ? other.intervals_ : intervals_;
        IntervalSet out;
        std::size_t j = 0;
        for (const auto& iv : small) {
            j = gallopTo(large, j, iv.lo);
            for (std::size_t k = j; k < large.size() && !(iv.hi < large[k].lo); ++k) {
                out.intervals_.push_back(
                    {std::max(iv.lo, large[k].lo), std::min(iv.hi, large[k].hi)});
            }
        }
        return out;
    }

    /// Set difference: elements of *this not in `other`, galloping through
    /// `other`, so subtracting a large set from a small one does not scan
    /// the large one.
    IntervalSet subtract(const IntervalSet& other) const {
        const std::vector<Interval<T>>& cuts = other.intervals_;
        IntervalSet out;
        std::size_t j = 0;
        for (const auto& iv : intervals_) {
            j = gallopTo(cuts, j, iv.lo);
            T cursor = iv.lo;
            bool covered = false;
            for (std::size_t k = j; k < cuts.size() && !(iv.hi < cuts[k].lo); ++k) {
                if (cursor < cuts[k].lo) out.intervals_.push_back({cursor, cuts[k].lo - T{1}});
                if (!(cuts[k].hi < iv.hi)) {
                    covered = true;  // the rest of iv is cut away
                    break;
                }
                cursor = cuts[k].hi + T{1};
            }
            if (!covered) out.intervals_.push_back({cursor, iv.hi});
        }
        return out;
    }

    /// Number of elements, as double (exact for IPv4-sized sets).
    double countDouble() const {
        double total = 0;
        for (const auto& iv : intervals_) {
            total += elementCount(iv);
        }
        return total;
    }

    /// Exact element count for sets known to fit in 64 bits.
    std::uint64_t countU64() const {
        std::uint64_t total = 0;
        for (const auto& iv : intervals_) {
            if constexpr (requires(T t) { t.toU64(); }) {
                total += (iv.hi - iv.lo).toU64() + 1;
            } else {
                total += static_cast<std::uint64_t>(iv.hi - iv.lo) + 1;
            }
        }
        return total;
    }

    friend bool operator==(const IntervalSet&, const IntervalSet&) = default;

private:
    static constexpr T maxValue() {
        if constexpr (requires { T::max(); }) return T::max();
        else return ~T{0};
    }

    /// Appends `iv`, merging it into the last interval when the two
    /// overlap or touch. Callers append in ascending lo order.
    void take(const Interval<T>& iv) {
        if (!intervals_.empty()) {
            auto& back = intervals_.back();
            if (!(back.hi < iv.lo) || (!(back.hi == maxValue()) && back.hi + T{1} == iv.lo)) {
                back.hi = std::max(back.hi, iv.hi);
                return;
            }
        }
        intervals_.push_back(iv);
    }

    /// First index i >= from with ivs[i].hi >= x, or ivs.size():
    /// exponential then binary search, so k ascending probes across n
    /// intervals cost O(k log(n / k)).
    static std::size_t gallopTo(const std::vector<Interval<T>>& ivs, std::size_t from,
                                const T& x) {
        const std::size_t n = ivs.size();
        if (from >= n || !(ivs[from].hi < x)) return from;
        std::size_t below = from;  // ivs[below].hi < x
        std::size_t step = 1;
        while (below + step < n && ivs[below + step].hi < x) {
            below += step;
            step *= 2;
        }
        const auto first = ivs.begin() + static_cast<std::ptrdiff_t>(below + 1);
        const auto last = ivs.begin() + static_cast<std::ptrdiff_t>(std::min(below + step, n));
        return static_cast<std::size_t>(
            std::lower_bound(first, last, x,
                             [](const Interval<T>& iv, const T& v) { return iv.hi < v; }) -
            ivs.begin());
    }

    static double elementCount(const Interval<T>& iv) {
        if constexpr (requires(T t) { t.toDouble(); }) {
            return (iv.hi - iv.lo).toDouble() + 1.0;
        } else {
            return static_cast<double>(iv.hi - iv.lo) + 1.0;
        }
    }

    std::vector<Interval<T>> intervals_;
};

}  // namespace rpkic
