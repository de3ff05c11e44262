// IntervalSet algebra: unit cases plus randomized property tests against a
// brute-force bitset oracle on a small universe.
#include "ip/interval_set.hpp"

#include <gtest/gtest.h>

#include <bitset>

#include "ip/u128.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using Set64 = IntervalSet<std::uint64_t>;

TEST(IntervalSet, EmptyBehaviour) {
    Set64 s;
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(0));
    EXPECT_EQ(s.countU64(), 0u);
    EXPECT_TRUE(s.unionWith(s).empty());
    EXPECT_TRUE(s.intersect(s).empty());
    EXPECT_TRUE(s.subtract(s).empty());
}

TEST(IntervalSet, InsertMergesOverlapping) {
    Set64 s;
    s.insert(10, 20);
    s.insert(15, 30);
    EXPECT_EQ(s.intervalCount(), 1u);
    EXPECT_TRUE(s.containsRange(10, 30));
    EXPECT_EQ(s.countU64(), 21u);
}

TEST(IntervalSet, InsertMergesAdjacent) {
    Set64 s;
    s.insert(10, 20);
    s.insert(21, 30);  // adjacent, must merge
    EXPECT_EQ(s.intervalCount(), 1u);
    s.insert(32, 40);  // gap of one, must not merge
    EXPECT_EQ(s.intervalCount(), 2u);
    EXPECT_FALSE(s.contains(31));
}

TEST(IntervalSet, InsertBridgesManyIntervals) {
    Set64 s;
    s.insert(0, 1);
    s.insert(10, 11);
    s.insert(20, 21);
    s.insert(2, 19);
    EXPECT_EQ(s.intervalCount(), 1u);
    EXPECT_TRUE(s.containsRange(0, 21));
}

TEST(IntervalSet, FullU64RangeNoOverflow) {
    Set64 s;
    s.insert(0, ~0ULL);
    EXPECT_TRUE(s.contains(0));
    EXPECT_TRUE(s.contains(~0ULL));
    s.insert(5, 10);  // swallowed
    EXPECT_EQ(s.intervalCount(), 1u);
}

TEST(IntervalSet, FullU128RangeNoOverflow) {
    IntervalSet<U128> s;
    s.insert(U128{0, 0}, U128::max());
    EXPECT_TRUE(s.contains(U128::max()));
    EXPECT_EQ(s.intervalCount(), 1u);
    // Adjacency check at the top must not wrap.
    IntervalSet<U128> t;
    t.insert(U128::max(), U128::max());
    t.insert(U128{0, 0}, U128{0, 0});
    EXPECT_EQ(t.intervalCount(), 2u);
}

TEST(IntervalSet, SubtractSplitsInterval) {
    Set64 s;
    s.insert(0, 100);
    Set64 hole;
    hole.insert(40, 60);
    const Set64 r = s.subtract(hole);
    EXPECT_EQ(r.intervalCount(), 2u);
    EXPECT_TRUE(r.containsRange(0, 39));
    EXPECT_TRUE(r.containsRange(61, 100));
    EXPECT_FALSE(r.contains(40));
    EXPECT_FALSE(r.contains(60));
}

TEST(IntervalSet, FromIntervalsBatchBuild) {
    const Set64 s = Set64::fromIntervals({{50, 60}, {10, 20}, {15, 30}, {61, 70}});
    EXPECT_EQ(s.intervalCount(), 2u);
    EXPECT_TRUE(s.containsRange(10, 30));
    EXPECT_TRUE(s.containsRange(50, 70));
}

TEST(IntervalSet, IntersectsRange) {
    Set64 s;
    s.insert(10, 20);
    EXPECT_TRUE(s.intersectsRange(0, 10));
    EXPECT_TRUE(s.intersectsRange(20, 30));
    EXPECT_TRUE(s.intersectsRange(15, 16));
    EXPECT_FALSE(s.intersectsRange(0, 9));
    EXPECT_FALSE(s.intersectsRange(21, 30));
}

TEST(IntervalSet, RejectsInvertedInterval) {
    Set64 s;
    EXPECT_THROW(s.insert(5, 4), UsageError);
    EXPECT_THROW(Set64::single(5, 4), UsageError);
}

// ---------------------------------------------------------------------------
// Property tests against a bitset oracle on universe [0, 256).

constexpr std::size_t kUniverse = 256;
using Oracle = std::bitset<kUniverse>;

Set64 fromOracle(const Oracle& o) {
    Set64 s;
    for (std::size_t i = 0; i < kUniverse; ++i) {
        if (o[i]) s.insert(i, i);
    }
    return s;
}

Oracle toOracle(const Set64& s) {
    Oracle o;
    for (std::size_t i = 0; i < kUniverse; ++i) o[i] = s.contains(i);
    return o;
}

Oracle randomOracle(Rng& rng) {
    Oracle o;
    const int chunks = static_cast<int>(rng.nextInRange(0, 8));
    for (int c = 0; c < chunks; ++c) {
        const auto lo = rng.nextBelow(kUniverse);
        const auto hi = rng.nextInRange(lo, std::min<std::uint64_t>(kUniverse - 1, lo + 40));
        for (auto i = lo; i <= hi; ++i) o[i] = true;
    }
    return o;
}

/// Each element present with probability `density`: dozens of short
/// intervals.
Oracle fragmentedOracle(Rng& rng, double density) {
    Oracle o;
    for (std::size_t i = 0; i < kUniverse; ++i) o[i] = rng.nextBool(density);
    return o;
}

class IntervalSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntervalSetProperty, AlgebraMatchesBitsetOracle) {
    Rng rng(GetParam());
    for (int iter = 0; iter < 50; ++iter) {
        const Oracle oa = randomOracle(rng);
        const Oracle ob = randomOracle(rng);
        const Set64 a = fromOracle(oa);
        const Set64 b = fromOracle(ob);

        EXPECT_EQ(toOracle(a.unionWith(b)), oa | ob);
        EXPECT_EQ(toOracle(a.intersect(b)), oa & ob);
        EXPECT_EQ(toOracle(a.subtract(b)), oa & ~ob);
        EXPECT_EQ(a.countU64(), oa.count());

        // Canonical form: disjoint, sorted, non-adjacent intervals.
        const Set64 u = a.unionWith(b);
        const auto& ivs = u.intervals();
        for (std::size_t i = 1; i < ivs.size(); ++i) {
            EXPECT_GT(ivs[i].lo, ivs[i - 1].hi + 1);
        }
    }
}

TEST_P(IntervalSetProperty, SkewedSizesMatchBitsetOracle) {
    // A fragmented set against a few intervals: intersect and subtract
    // gallop through the larger side, in both argument orders.
    Rng rng(GetParam() * 104729 + 7);
    for (int iter = 0; iter < 50; ++iter) {
        const Oracle om = fragmentedOracle(rng, 0.4);
        const Oracle of = randomOracle(rng);
        const Set64 many = fromOracle(om);
        const Set64 few = fromOracle(of);

        EXPECT_EQ(toOracle(many.intersect(few)), om & of);
        EXPECT_EQ(many.intersect(few), few.intersect(many));
        EXPECT_EQ(toOracle(many.subtract(few)), om & ~of);
        EXPECT_EQ(toOracle(few.subtract(many)), of & ~om);
        EXPECT_EQ(toOracle(many.unionWith(few)), om | of);
    }
}

TEST_P(IntervalSetProperty, BatchBuildMatchesIncrementalInsert) {
    Rng rng(GetParam() * 7919 + 13);
    for (int iter = 0; iter < 30; ++iter) {
        std::vector<Interval<std::uint64_t>> raw;
        Set64 incremental;
        const int n = static_cast<int>(rng.nextInRange(0, 20));
        for (int i = 0; i < n; ++i) {
            const auto lo = rng.nextBelow(kUniverse);
            const auto hi = rng.nextInRange(lo, std::min<std::uint64_t>(kUniverse - 1, lo + 30));
            raw.push_back({lo, hi});
            incremental.insert(lo, hi);
        }
        EXPECT_EQ(Set64::fromIntervals(raw), incremental);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalSetProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

}  // namespace
}  // namespace rpkic
