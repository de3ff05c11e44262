// Detector parallelization suite:
//  * differential: DowngradeReports are byte-identical (serializeReport)
//    across thread counts {1,2,4,8} over 32 randomized seeds;
//  * competing-ROA regression: the prefix-indexed walk reproduces the
//    historical quadratic scan's output exactly (contents AND order), and
//    the superlinear blowup is gone (a ~50k-tuple corpus finishes in
//    seconds instead of hours);
//  * prefixCount exactness at the 2^53+1 double-precision boundary, plus
//    full-/0-triangle and empty-set edge cases;
//  * the intersect-count <= source-count invariant the IPv6 diff path now
//    RC_CHECKs instead of clamping;
//  * shared-state semantics: indexes alias one RpkiState instead of
//    copying the tuple vector.
#include "detector/diff.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "detector_oracle.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using oracle::churned;
using oracle::randomState;

TEST(DetectorParallel, ReportsAreByteIdenticalAcrossThreadCounts) {
    rc::parallel::Pool sequential(1);
    rc::parallel::Pool two(2);
    rc::parallel::Pool four(4);
    rc::parallel::Pool eight(8);

    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        const auto prevState = std::make_shared<const RpkiState>(randomState(rng, 300, true));
        const auto curState =
            std::make_shared<const RpkiState>(churned(rng, *prevState, 60, true));

        const PrefixValidityIndex prevSeq(prevState, sequential);
        const PrefixValidityIndex curSeq(curState, sequential);
        const std::string baseline =
            serializeReport(diffStates(prevSeq, curSeq, 8, sequential));

        for (rc::parallel::Pool* pool : {&two, &four, &eight}) {
            const PrefixValidityIndex prevPar(prevState, *pool);
            const PrefixValidityIndex curPar(curState, *pool);
            const std::string parallel =
                serializeReport(diffStates(prevPar, curPar, 8, *pool));
            ASSERT_EQ(parallel, baseline)
                << "seed " << seed << " threads " << pool->threads();
        }
    }
}

// The historical nested-loop scan is the oracle for the covering walk.
using oracle::competingRoas;

TEST(CompetingRoas, IndexedWalkMatchesQuadraticOracleOnRandomCorpora) {
    rc::parallel::Pool pool(4);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 977);
        const RpkiState prev = randomState(rng, 250, true);
        const RpkiState cur = churned(rng, prev, 80, true);
        const std::vector<CompetingRoa> fast = findCompetingRoas(prev, cur, pool);
        const std::vector<CompetingRoa> slow = competingRoas(prev, cur);
        ASSERT_EQ(fast.size(), slow.size()) << "seed " << seed;
        for (std::size_t i = 0; i < fast.size(); ++i) {
            ASSERT_EQ(fast[i], slow[i]) << "seed " << seed << " entry " << i
                                        << " (order must match the historical scan)";
        }
    }
}

TEST(CompetingRoas, NestedRoasAcrossFamilies) {
    rc::parallel::Pool pool(1);
    const RpkiState prev({
        {IpPrefix::parse("10.0.0.0/8"), 8, 100},
        {IpPrefix::parse("10.0.0.0/16"), 16, 200},
        {IpPrefix::parse("2001:db8::/32"), 32, 300},
    });
    const RpkiState cur({
        {IpPrefix::parse("10.0.0.0/8"), 8, 100},
        {IpPrefix::parse("10.0.0.0/16"), 16, 200},
        {IpPrefix::parse("2001:db8::/32"), 32, 300},
        {IpPrefix::parse("10.0.1.0/24"), 24, 999},      // contests both v4 ROAs
        {IpPrefix::parse("2001:db8:1::/48"), 48, 888},  // contests the v6 ROA only
    });
    const auto got = findCompetingRoas(prev, cur, pool);
    ASSERT_EQ(got, competingRoas(prev, cur));
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].added.asn, 999u);
    EXPECT_EQ(got[2].added.asn, 888u);
    EXPECT_EQ(got[2].existing.asn, 300u);
}

TEST(CompetingRoas, LargeCorpusFinishesFast) {
    // Bench guard for the quadratic-scan bugfix: ~50k prev tuples and
    // ~50k added tuples under one covering /8 per AS. The old
    // O(|added| * |prev|) scan needs ~2.4e9 covers() calls here; the
    // indexed walk does ~33 probes per added tuple. The 20 s ceiling is
    // deliberately generous for slow CI machines while still being
    // orders of magnitude below the quadratic cost.
    std::vector<RoaTuple> prevTuples;
    prevTuples.reserve(50000);
    // 256 covering /8s under alternating ASes, then dense disjoint /24s.
    for (std::uint32_t i = 0; i < 256; ++i) {
        prevTuples.push_back(
            {IpPrefix::v4(i << 24, 8), 8, static_cast<Asn>(1 + (i % 2))});
    }
    for (std::uint32_t i = 0; i < 49744; ++i) {
        prevTuples.push_back({IpPrefix::v4(i << 8, 24), 24, 3});
    }
    std::vector<RoaTuple> curTuples = prevTuples;
    for (std::uint32_t i = 0; i < 50000; ++i) {
        curTuples.push_back({IpPrefix::v4((i << 8) | (1u << 31), 25), 25,
                             static_cast<Asn>(4 + (i % 5))});
    }
    const RpkiState prev(std::move(prevTuples));
    const RpkiState cur(std::move(curTuples));

    rc::parallel::Pool pool(2);
    const auto start = std::chrono::steady_clock::now();
    const auto competing = findCompetingRoas(prev, cur, pool);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    // Every added /25 sits under exactly one /8 of a different AS (and
    // under a /24 of AS 3 where one exists).
    EXPECT_GE(competing.size(), 50000u);
    EXPECT_LT(elapsed, 20000) << "competing-ROA scan has gone superlinear again";
}

TEST(PrefixCount, ExactAboveTheDoubleBoundary) {
    // 2^53 + 1 level-60 blocks: the first integer a double cannot
    // represent. The integer path must count it exactly; the legacy
    // double path rounds to 2^53 — which is precisely the bug this guards
    // against.
    using WideSet = BasicTriangleSet<std::uint64_t, 60>;
    WideSet::RawLevels raw;
    raw[60].push_back({0, (1ull << 53)});  // 2^53 + 1 addresses at level 60
    const WideSet t = WideSet::build(raw);
    EXPECT_EQ(t.prefixCount(), (1ull << 53) + 1);
    EXPECT_EQ(static_cast<std::uint64_t>(t.prefixCountDouble()), 1ull << 53)
        << "the double path rounds; if this starts matching, the guard is dead";
}

TEST(PrefixCount, FullAndEmptyTriangles) {
    // A /0-rooted IPv4 triangle down to /32 holds every prefix: 2^33 - 1.
    const PrefixValidityIndex idx(RpkiState({{IpPrefix::parse("0.0.0.0/0"), 32, 1}}));
    EXPECT_EQ(idx.validTriangles(1).prefixCount(), (1ull << 33) - 1);
    EXPECT_EQ(idx.knownTriangles().prefixCount(), (1ull << 33) - 1);
    // Top-level interval arithmetic must dodge the full-width +1 overflow.
    EXPECT_EQ(idx.knownTriangles().level(0).countU64(), 1ull << 32);

    EXPECT_EQ(TriangleSet{}.prefixCount(), 0u);
    EXPECT_TRUE(TriangleSet{}.empty());

    const PrefixValidityIndex one(RpkiState({{IpPrefix::parse("0.0.0.0/0"), 0, 1}}));
    EXPECT_EQ(one.validTriangles(1).prefixCount(), 1u);
}

TEST(PrefixCount, V6SaturatesInsteadOfWrapping) {
    // The full IPv6 known triangle has ~2^129 nodes: no integer width
    // holds it, so the uint64 view must saturate, not wrap.
    const PrefixValidityIndex idx(RpkiState({{IpPrefix::parse("::/0"), 128, 1}}));
    EXPECT_EQ(idx.validTriangles6(1).prefixCount(),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_GT(idx.validTriangles6(1).prefixCountDouble(), 1e38);
}

TEST(TriangleInvariant, IntersectNeverExceedsSource) {
    // The property behind the diff engine's RC_CHECK (formerly a silent
    // clamp): |A ∩ B| <= |A| per level and in total, over random v6
    // triangle unions.
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        Rng rng(seed * 31);
        const RpkiState a = randomState(rng, 80, true);
        const RpkiState b = randomState(rng, 80, true);
        const PrefixValidityIndex ia(a), ib(b);
        for (const Asn asn : ia.asns()) {
            const TriangleSet6& src = ia.validTriangles6(asn);
            const TriangleSet6 both = src.intersect(ib.knownTriangles6());
            EXPECT_LE(both.prefixCountDouble(), src.prefixCountDouble())
                << "seed " << seed << " AS " << asn;
            for (int q = 0; q <= TriangleSet6::kMaxLen; ++q) {
                ASSERT_LE(both.level(q).countDouble(), src.level(q).countDouble());
            }
        }
        // And the full diff path runs its RC_CHECK without firing.
        const DowngradeReport rep = diffStates(a, b, 4);
        (void)rep;
    }
}

TEST(SharedState, IndexAliasesTheStateInsteadOfCopying) {
    const auto state = std::make_shared<const RpkiState>(
        RpkiState({{IpPrefix::parse("10.0.0.0/8"), 16, 7}}));
    const PrefixValidityIndex idx(state);
    EXPECT_EQ(&idx.state(), state.get()) << "index must alias, not copy, the snapshot";
    EXPECT_EQ(idx.stateHandle().get(), state.get());

    // Two indexes over the same snapshot share one tuple vector.
    const PrefixValidityIndex again(idx.stateHandle());
    EXPECT_EQ(&again.state(), &idx.state());
    EXPECT_GE(state.use_count(), 3);

    // The copying constructor still works for callers that hand in a
    // temporary.
    const PrefixValidityIndex copied(*state);
    EXPECT_NE(&copied.state(), state.get());
    EXPECT_EQ(copied.classify({IpPrefix::parse("10.0.0.0/12"), 7}), RouteValidity::Valid);
}

}  // namespace
}  // namespace rpkic
