// Detector: classification semantics (paper §2.2), triangle geometry
// (§4.1), downgrade diffs for the paper's case studies, and a randomized
// property sweep against a brute-force oracle.
#include "detector/diff.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

RpkiState state(std::vector<RoaTuple> tuples) {
    return RpkiState(std::move(tuples));
}

TEST(RpkiState, NormalizesAndDiffs) {
    const RpkiState a = state({{pfx("10.0.0.0/8"), 8, 1}, {pfx("10.0.0.0/8"), 8, 1}});
    EXPECT_EQ(a.size(), 1u);
    const RpkiState b = state({{pfx("10.0.0.0/8"), 8, 1}, {pfx("11.0.0.0/8"), 8, 2}});
    const auto onlyB = b.minus(a);
    ASSERT_EQ(onlyB.size(), 1u);
    EXPECT_EQ(onlyB[0].asn, 2u);
    EXPECT_TRUE(a.contains({pfx("10.0.0.0/8"), 8, 1}));
    EXPECT_FALSE(a.contains({pfx("10.0.0.0/8"), 9, 1}));
}

TEST(RpkiState, FromRoasFlattens) {
    Roa roa;
    roa.asn = 7341;
    roa.prefixes = {{pfx("63.168.93.0/24"), 24}, {pfx("63.174.16.0/20"), 24}};
    const RpkiState s = RpkiState::fromRoas(std::span(&roa, 1));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains({pfx("63.174.16.0/20"), 24, 7341}));
}

TEST(Classify, DesideratumFromSection22) {
    // Legitimate route has a matching ROA; a subprefix hijack must be
    // invalid, an unrelated prefix unknown.
    const PrefixValidityIndex idx(state({{pfx("63.160.0.0/12"), 12, 1239}}));
    EXPECT_EQ(idx.classify({pfx("63.160.0.0/12"), 1239}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("63.160.77.0/24"), 666}), RouteValidity::Invalid);
    EXPECT_EQ(idx.classify({pfx("63.160.77.0/24"), 1239}), RouteValidity::Invalid)
        << "maxLength 12 does not authorize longer prefixes even for the right AS";
    EXPECT_EQ(idx.classify({pfx("64.0.0.0/12"), 666}), RouteValidity::Unknown);
    EXPECT_EQ(idx.classify({pfx("63.0.0.0/8"), 1239}), RouteValidity::Unknown)
        << "a shorter prefix is not covered by the /12 ROA";
}

TEST(Classify, MaxLengthWindow) {
    const PrefixValidityIndex idx(state({{pfx("10.0.0.0/17"), 22, 7}}));
    EXPECT_EQ(idx.classify({pfx("10.0.0.0/17"), 7}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("10.0.0.0/22"), 7}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("10.0.0.0/23"), 7}), RouteValidity::Invalid);
    EXPECT_EQ(idx.classify({pfx("10.0.64.0/18"), 7}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("10.0.128.0/17"), 7}), RouteValidity::Unknown);
}

TEST(Classify, PaperTriangleSizeExample) {
    // §4.1: a ROA for a /17 up to maxLength 22 makes 2^(23-17)-1 = 63
    // prefixes valid for the AS.
    const PrefixValidityIndex idx(state({{pfx("10.0.0.0/17"), 22, 7}}));
    EXPECT_EQ(idx.validTriangles(7).prefixCount(), 63u);
    EXPECT_EQ(idx.validTriangles(8).prefixCount(), 0u);
}

TEST(Classify, OverlappingRoasKeepRouteValid) {
    // §4.1: whacking one ROA need not invalidate routes that another ROA
    // (same AS, super-prefix) still validates.
    const PrefixValidityIndex idx(state({
        {pfx("10.0.0.0/16"), 24, 7},
    }));
    const PrefixValidityIndex both(state({
        {pfx("10.0.0.0/16"), 24, 7},
        {pfx("10.0.3.0/24"), 24, 7},
    }));
    EXPECT_EQ(both.classify({pfx("10.0.3.0/24"), 7}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("10.0.3.0/24"), 7}), RouteValidity::Valid)
        << "covering ROA with sufficient maxLength keeps the route valid";
}

TEST(Classify, V6Routes) {
    const PrefixValidityIndex idx(state({{pfx("2c0f:f668::/32"), 48, 37600}}));
    EXPECT_EQ(idx.classify({pfx("2c0f:f668::/32"), 37600}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("2c0f:f668:1::/48"), 37600}), RouteValidity::Valid);
    EXPECT_EQ(idx.classify({pfx("2c0f:f668:1::/48"), 666}), RouteValidity::Invalid);
    EXPECT_EQ(idx.classify({pfx("2c0f:f668::/49"), 37600}), RouteValidity::Invalid);
    EXPECT_EQ(idx.classify({pfx("2c0f:f669::/32"), 37600}), RouteValidity::Unknown);
}

TEST(Classify, EmptyStateEverythingUnknown) {
    const PrefixValidityIndex idx{RpkiState{}};
    EXPECT_EQ(idx.classify({pfx("8.8.8.0/24"), 15169}), RouteValidity::Unknown);
    EXPECT_EQ(idx.invalidFootprintAddresses(), 0u);
    EXPECT_TRUE(idx.asns().empty());
}

TEST(Diff, CaseStudy1AddedRoaDowngradesCoveredRoutes) {
    // Dec 13: ROA (173.251.0.0/17, max 24, AS 6128) appears; legitimate
    // /24s without their own ROAs downgrade unknown -> invalid.
    const RpkiState before = state({});
    const RpkiState after = state({{pfx("173.251.0.0/17"), 24, 6128}});
    const PrefixValidityIndex idxB(before), idxA(after);

    EXPECT_EQ(idxB.classify({pfx("173.251.91.0/24"), 53725}), RouteValidity::Unknown);
    EXPECT_EQ(idxA.classify({pfx("173.251.91.0/24"), 53725}), RouteValidity::Invalid);
    EXPECT_EQ(idxA.classify({pfx("173.251.54.0/24"), 13599}), RouteValidity::Invalid);
    EXPECT_EQ(idxA.classify({pfx("173.251.0.0/17"), 6128}), RouteValidity::Valid);

    const DowngradeReport report = diffStates(idxB, idxA);
    EXPECT_EQ(report.validToInvalidPairs, 0u);
    EXPECT_GT(report.unknownToValidPairs, 0u);
    // The /17 covers 2^15 addresses, all newly "invalid for >= 1 AS".
    EXPECT_EQ(report.invalidAddressesBefore, 0u);
    EXPECT_EQ(report.invalidAddressesAfter, 32768u);
}

TEST(Diff, CaseStudy2WhackedRoaWithCoveringRoa) {
    // Dec 19: ROA (79.139.96.0/24, AS 51813) deleted while a covering ROA
    // (79.139.96.0/19-20, AS 43782) exists: the route downgrades
    // valid -> invalid.
    const RpkiState before = state({
        {pfx("79.139.96.0/24"), 24, 51813},
        {pfx("79.139.96.0/19"), 20, 43782},
    });
    const RpkiState after = state({
        {pfx("79.139.96.0/19"), 20, 43782},
    });
    const PrefixValidityIndex idxB(before), idxA(after);
    EXPECT_EQ(idxB.classify({pfx("79.139.96.0/24"), 51813}), RouteValidity::Valid);
    EXPECT_EQ(idxA.classify({pfx("79.139.96.0/24"), 51813}), RouteValidity::Invalid);

    const DowngradeReport report = diffStates(idxB, idxA);
    EXPECT_EQ(report.validToInvalidPairs, 1u);
    EXPECT_EQ(report.validToUnknownPairs, 0u);
    ASSERT_FALSE(report.perAs.empty());
    EXPECT_EQ(report.perAs[0].asn, 51813u);
    ASSERT_EQ(report.perAs[0].exampleLostValid.size(), 1u);
    EXPECT_EQ(report.perAs[0].exampleLostValid[0].str(), "79.139.96.0/24");

    // The tuple-level report names the victim route.
    bool found = false;
    for (const auto& t : report.tupleTransitions) {
        if (t.route.str() == "79.139.96.0/24 AS51813") {
            found = true;
            EXPECT_EQ(t.before, RouteValidity::Valid);
            EXPECT_EQ(t.after, RouteValidity::Invalid);
            EXPECT_TRUE(t.isDowngrade());
        }
    }
    EXPECT_TRUE(found);
}

TEST(Diff, WhackedRoaWithoutCoverGoesUnknown) {
    const RpkiState before = state({{pfx("196.6.174.0/23"), 24, 37688}});
    const RpkiState after = state({});
    const DowngradeReport report = diffStates(before, after);
    EXPECT_EQ(report.validToInvalidPairs, 0u);
    // /23 with maxLength 24: levels 23 and 24 -> 1 + 2 = 3 pairs.
    EXPECT_EQ(report.validToUnknownPairs, 3u);
    EXPECT_FALSE(report.tupleTransitions.empty());
    EXPECT_TRUE(report.hasDowngrades());
}

TEST(Diff, CompetingRoaDetected) {
    // Kent et al.'s threat (paper §6): a new ROA for (10.0.7.0/24, AS 666)
    // competes with the existing (10.0.0.0/16, AS 7) ROA — AS 666 can now
    // subprefix-hijack AS 7 "legitimately".
    const RpkiState before = state({{pfx("10.0.0.0/16"), 16, 7}});
    const RpkiState after = state({
        {pfx("10.0.0.0/16"), 16, 7},
        {pfx("10.0.7.0/24"), 24, 666},
    });
    const DowngradeReport report = diffStates(before, after);
    ASSERT_EQ(report.competingRoas.size(), 1u);
    EXPECT_EQ(report.competingRoas[0].added.asn, 666u);
    EXPECT_EQ(report.competingRoas[0].existing.asn, 7u);

    // Same AS extending its own space is NOT competing.
    const RpkiState ownExtension = state({
        {pfx("10.0.0.0/16"), 16, 7},
        {pfx("10.0.7.0/24"), 24, 7},
    });
    EXPECT_TRUE(diffStates(before, ownExtension).competingRoas.empty());

    // A new ROA for uncovered space is NOT competing.
    const RpkiState unrelated = state({
        {pfx("10.0.0.0/16"), 16, 7},
        {pfx("11.0.0.0/16"), 16, 666},
    });
    EXPECT_TRUE(diffStates(before, unrelated).competingRoas.empty());
}

TEST(Diff, NoChangesNoDowngrades) {
    const RpkiState s = state({{pfx("10.0.0.0/16"), 20, 7}});
    const DowngradeReport report = diffStates(s, s);
    EXPECT_FALSE(report.hasDowngrades());
    EXPECT_TRUE(report.tupleTransitions.empty());
    EXPECT_EQ(report.unknownToValidPairs, 0u);
}

TEST(Diff, UnknownToInvalidTrianglesForViz) {
    // Figure 6(r) scenario shape: adding a covering ROA downgrades the
    // uncovered part of the space.
    const RpkiState before = state({{pfx("63.174.16.0/24"), 24, 19817}});
    const RpkiState after = state({
        {pfx("63.174.16.0/24"), 24, 19817},
        {pfx("63.174.16.0/20"), 24, 17054},
    });
    const PrefixValidityIndex idxB(before), idxA(after);
    const TriangleSet tri = unknownToInvalidTriangles(idxB, idxA, 19817);
    // 63.174.16.0/24 at level 24 was already known before; everything else
    // under the /20 from level 20 downward is newly invalid for AS 19817.
    EXPECT_TRUE(tri.containsPrefix(pfx("63.174.17.0/24")));
    EXPECT_FALSE(tri.containsPrefix(pfx("63.174.16.0/24")));
    EXPECT_TRUE(tri.containsPrefix(pfx("63.174.16.0/20")));
}

TEST(SamplePrefixes, ExtractsAlignedBlocks) {
    const PrefixValidityIndex idx(state({{pfx("10.0.0.0/15"), 16, 7}}));
    const auto sample = samplePrefixes(idx.validTriangles(7), 10);
    ASSERT_EQ(sample.size(), 3u);
    EXPECT_EQ(sample[0].str(), "10.0.0.0/15");
    EXPECT_EQ(sample[1].str(), "10.0.0.0/16");
    EXPECT_EQ(sample[2].str(), "10.1.0.0/16");
}

// ---------------------------------------------------------------------------
// Randomized property sweep: classification and diff counts must match a
// brute-force oracle on a confined subtree of the prefix space.

RouteValidity oracleClassify(const std::vector<RoaTuple>& tuples, const Route& r) {
    bool covered = false;
    for (const auto& t : tuples) {
        if (!t.prefix.covers(r.prefix)) continue;
        covered = true;
        if (t.asn == r.origin && r.prefix.length <= t.maxLength) return RouteValidity::Valid;
    }
    return covered ? RouteValidity::Invalid : RouteValidity::Unknown;
}

// All prefixes under 10.0.0.0/24 down to /32, plus the root /24 ancestors.
std::vector<IpPrefix> testUniverse() {
    std::vector<IpPrefix> out;
    for (int len = 24; len <= 32; ++len) {
        const std::uint32_t count = 1u << (len - 24);
        for (std::uint32_t i = 0; i < count; ++i) {
            out.push_back(IpPrefix::v4(0x0A000000u + (i << (32 - len)), len));
        }
    }
    return out;
}

class DetectorProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectorProperty, ClassifyMatchesBruteForce) {
    Rng rng(GetParam());
    const std::vector<IpPrefix> universe = testUniverse();
    const std::vector<Asn> asns = {1, 2, 3};

    auto randomState = [&]() {
        std::vector<RoaTuple> tuples;
        const int n = static_cast<int>(rng.nextInRange(0, 12));
        for (int i = 0; i < n; ++i) {
            const IpPrefix& p = universe[static_cast<std::size_t>(rng.nextBelow(universe.size()))];
            const auto maxLen = static_cast<std::uint8_t>(rng.nextInRange(p.length, 32));
            tuples.push_back({p, maxLen, asns[static_cast<std::size_t>(rng.nextBelow(3))]});
        }
        return RpkiState(std::move(tuples));
    };

    for (int iter = 0; iter < 10; ++iter) {
        const RpkiState prev = randomState();
        const RpkiState cur = randomState();
        const PrefixValidityIndex idxPrev(prev), idxCur(cur);

        // unknown->invalid is defined over the tracked AS universe (ASes
        // appearing in some ROA of either state); mirror that here.
        std::vector<Asn> tracked;
        for (const auto& t : prev.tuples()) tracked.push_back(t.asn);
        for (const auto& t : cur.tuples()) tracked.push_back(t.asn);
        std::sort(tracked.begin(), tracked.end());
        tracked.erase(std::unique(tracked.begin(), tracked.end()), tracked.end());

        std::uint64_t v2i = 0, v2u = 0, u2v = 0, u2i = 0;
        for (const auto& p : universe) {
            for (const Asn a : asns) {
                const Route r{p, a};
                const RouteValidity ob = oracleClassify(prev.tuples(), r);
                const RouteValidity oa = oracleClassify(cur.tuples(), r);
                ASSERT_EQ(idxPrev.classify(r), ob) << r.str();
                ASSERT_EQ(idxCur.classify(r), oa) << r.str();
                const bool isTracked = std::binary_search(tracked.begin(), tracked.end(), a);
                if (ob == RouteValidity::Valid && oa == RouteValidity::Invalid) ++v2i;
                if (ob == RouteValidity::Valid && oa == RouteValidity::Unknown) ++v2u;
                if (ob == RouteValidity::Unknown && oa == RouteValidity::Valid) ++u2v;
                if (ob == RouteValidity::Unknown && oa == RouteValidity::Invalid && isTracked) ++u2i;
            }
        }
        const DowngradeReport report = diffStates(idxPrev, idxCur);
        EXPECT_EQ(report.validToInvalidPairs, v2i);
        EXPECT_EQ(report.validToUnknownPairs, v2u);
        EXPECT_EQ(report.unknownToValidPairs, u2v);
        EXPECT_EQ(report.unknownToInvalidPairs, u2i);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectorProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// ---------------------------------------------------------------------------
// Churn-proportional work, pinned by the detector's deterministic work
// counters rather than by a time.

/// A state shaped like pipebench's vrp-heavy workload: 48 authorities,
/// each holding a /14 and a /48, with 21 ASes of 20 tuples apiece —
/// three quarters /16../24 IPv4 with maxLength up to +4, the rest
/// /48../56 IPv6 with maxLength up to +8.
RpkiState vrpHeavyShaped(Rng& rng) {
    std::vector<RoaTuple> tuples;
    Asn asn = 100000;
    for (std::uint32_t leaf = 0; leaf < 48; ++leaf) {
        const std::uint32_t v4Base = 0x0A000000u + (leaf << 18);
        const std::uint64_t v6Base = 0x20010db800000000ull | (std::uint64_t{leaf} << 16);
        for (int roa = 0; roa < 21; ++roa, ++asn) {
            for (int i = 0; i < 20; ++i) {
                if (rng.nextBelow(4) != 0) {
                    const int len = static_cast<int>(rng.nextInRange(16, 24));
                    const auto slot = static_cast<std::uint32_t>(rng.nextBelow(1ull << (len - 14)));
                    tuples.push_back({IpPrefix::v4(v4Base + (slot << (32 - len)), len),
                                      static_cast<std::uint8_t>(len + rng.nextBelow(5)), asn});
                } else {
                    const int len = static_cast<int>(rng.nextInRange(48, 56));
                    const std::uint64_t sub = rng.nextBelow(1ull << (len - 48)) << (64 - len);
                    tuples.push_back({IpPrefix::v6(U128(v6Base | sub, 0), len),
                                      static_cast<std::uint8_t>(len + rng.nextBelow(9)), asn});
                }
            }
        }
    }
    return RpkiState(std::move(tuples));
}

struct DiffWork {
    std::uint64_t asesDiffed = 0;
    std::uint64_t routesClassified = 0;
};

DiffWork diffWork(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur) {
    obs::Counter& ases = obs::Registry::global().counter(
        "rc_detector_ases_diffed_total", "ASes whose valid triangles a diff ran set operations on");
    obs::Counter& routes = obs::Registry::global().counter(
        "rc_detector_routes_classified_total", "Routes a diff classified under both states");
    const std::uint64_t ases0 = ases.value();
    const std::uint64_t routes0 = routes.value();
    (void)diffStates(prev, cur);
    return {ases.value() - ases0, routes.value() - routes0};
}

/// Distinct routes announced by tuples of either state that belong to
/// an AS in `asns`.
std::uint64_t routesOf(const RpkiState& a, const RpkiState& b, const std::vector<Asn>& asns) {
    std::vector<Route> out;
    for (const RpkiState* s : {&a, &b}) {
        for (const RoaTuple& t : s->tuples()) {
            if (std::find(asns.begin(), asns.end(), t.asn) != asns.end()) {
                out.push_back(t.announcedRoute());
            }
        }
    }
    std::sort(out.begin(), out.end());
    return static_cast<std::uint64_t>(std::unique(out.begin(), out.end()) - out.begin());
}

TEST(DetectorWork, OneChangedTupleDiffsOnlyWhatItTouches) {
    ASSERT_TRUE(obs::runtimeEnabled());
    Rng rng(2014);
    const auto prev = std::make_shared<const RpkiState>(vrpHeavyShaped(rng));
    ASSERT_GT(prev->size(), 19000u);
    const PrefixValidityIndex prevIdx(prev);
    ASSERT_GT(prevIdx.asns().size(), 1000u);

    for (int trial = 0; trial < 8; ++trial) {
        // Replace one tuple by a tuple of another AS, at that AS's
        // prefix when the families match.
        std::vector<RoaTuple> tuples = prev->tuples();
        const std::size_t victim = rng.nextBelow(tuples.size());
        const RoaTuple gone = tuples[victim];
        const RoaTuple& donor = tuples[rng.nextBelow(tuples.size())];
        RoaTuple added = gone;
        added.asn = donor.asn;
        added.prefix = donor.prefix.family == gone.prefix.family ? donor.prefix : gone.prefix;
        added.maxLength = static_cast<std::uint8_t>(added.prefix.length);
        tuples[victim] = added;
        const auto cur = std::make_shared<const RpkiState>(std::move(tuples));
        const TupleDelta delta = tupleDelta(*prev, *cur);
        if (delta.empty()) continue;

        std::vector<Asn> touched;
        for (const auto* side : {&delta.announced, &delta.withdrawn}) {
            for (const RoaTuple& t : *side) touched.push_back(t.asn);
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

        const DiffWork work = diffWork(prevIdx, PrefixValidityIndex(cur));
        EXPECT_LE(work.asesDiffed, 2u);
        EXPECT_EQ(work.asesDiffed, touched.size()) << "trial " << trial;
        EXPECT_EQ(work.routesClassified, routesOf(*prev, *cur, touched))
            << "trial " << trial;
        EXPECT_LT(work.routesClassified, prev->size() / 50) << "trial " << trial;
    }
}

TEST(DetectorWork, DiffFromEmptyCountsEveryAsAndRoute) {
    Rng rng(2014);
    const auto cur = std::make_shared<const RpkiState>(vrpHeavyShaped(rng));
    const PrefixValidityIndex curIdx(cur);
    const DiffWork work = diffWork(PrefixValidityIndex(RpkiState()), curIdx);
    EXPECT_EQ(work.asesDiffed, curIdx.asns().size());
    std::vector<Route> routes;
    for (const RoaTuple& t : cur->tuples()) routes.push_back(t.announcedRoute());
    std::sort(routes.begin(), routes.end());
    routes.erase(std::unique(routes.begin(), routes.end()), routes.end());
    EXPECT_EQ(work.routesClassified, routes.size());
}

}  // namespace
}  // namespace rpkic
