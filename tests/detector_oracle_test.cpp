// Differential suite: the churn-proportional detector against the frozen
// pre-rewrite detector (tests/detector_oracle.hpp). Reports must
// serialize byte-identically over random states with mixed families,
// every churn size from none to full replacement, both diff directions,
// the empty state, hand-built edge cases and every pair of consecutive
// days of the 91-day trace; classify() must agree on random routes; and
// the index's triangles must equal the oracle's level by level.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "detector/diff.hpp"
#include "detector_oracle.hpp"
#include "model/trace.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

/// Diffs prev -> cur with both detectors and fails on the first byte of
/// difference.
void expectSameReport(const RpkiState& prev, const RpkiState& cur, const std::string& what) {
    const std::string got = serializeReport(diffStates(prev, cur));
    const std::string want = serializeReport(oracle::diffStates(prev, cur));
    ASSERT_EQ(got, want) << what;
}

void expectSameBothWays(const RpkiState& a, const RpkiState& b, const std::string& what) {
    expectSameReport(a, b, what + " (forward)");
    expectSameReport(b, a, what + " (backward)");
}

/// Replaces `churn` random tuples of `base` with fresh ones.
RpkiState replaced(Rng& rng, const RpkiState& base, std::size_t churn) {
    std::vector<RoaTuple> tuples = base.tuples();
    for (std::size_t i = 0; i < churn && !tuples.empty(); ++i) {
        tuples.erase(tuples.begin() + static_cast<std::ptrdiff_t>(rng.nextBelow(tuples.size())));
    }
    const RpkiState fresh = oracle::randomState(rng, churn, true);
    tuples.insert(tuples.end(), fresh.tuples().begin(), fresh.tuples().end());
    return RpkiState(std::move(tuples));
}

TEST(DetectorOracle, RandomSeedsWithMixedFamilies) {
    const RpkiState empty;
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        const RpkiState prev = oracle::randomState(rng, 300, true);
        const RpkiState cur = oracle::churned(rng, prev, 60, true);
        const std::string what = "seed " + std::to_string(seed);
        expectSameBothWays(prev, cur, what);
        expectSameBothWays(empty, cur, what + " from empty");
    }
}

TEST(DetectorOracle, ChurnFromNoneToFullReplacement) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng rng(seed * 7919);
        const RpkiState base = oracle::randomState(rng, 400, true);
        for (const std::size_t churn : {0u, 1u, 10u, 60u}) {
            expectSameBothWays(base, replaced(rng, base, churn),
                               "seed " + std::to_string(seed) + " churn " + std::to_string(churn));
        }
        expectSameBothWays(base, oracle::randomState(rng, 400, true),
                           "seed " + std::to_string(seed) + " full replacement");
    }
}

TEST(DetectorOracle, EmptyStates) {
    Rng rng(99);
    const RpkiState empty;
    expectSameReport(empty, empty, "empty to empty");
    expectSameBothWays(empty, oracle::randomState(rng, 200, true), "one side empty");
}

TEST(DetectorOracle, EdgeCases) {
    // maxLength == length, at 32 and 128; /0 prefixes; nested prefixes
    // under the same AS and under other ASes; one AS in both families.
    const std::vector<RpkiState> states = {
        RpkiState({{pfx("10.0.0.0/8"), 8, 1}, {pfx("10.0.0.0/16"), 16, 1}}),
        RpkiState({{pfx("10.0.0.0/8"), 24, 1}, {pfx("10.1.0.0/16"), 20, 2},
                   {pfx("10.1.2.0/24"), 32, 3}, {pfx("10.1.2.3/32"), 32, 1}}),
        RpkiState({{pfx("0.0.0.0/0"), 0, 7}, {pfx("10.0.0.0/8"), 8, 7}}),
        RpkiState({{pfx("0.0.0.0/0"), 32, 7}, {pfx("::/0"), 0, 7}}),
        RpkiState({{pfx("::/0"), 128, 9}, {pfx("2001:db8::/32"), 48, 9}}),
        RpkiState({{pfx("2001:db8::/32"), 32, 5}, {pfx("2001:db8::1/128"), 128, 5},
                   {pfx("2001:db8:1::/48"), 64, 6}, {pfx("10.0.0.0/8"), 16, 5}}),
        RpkiState({{pfx("2001:db8::/32"), 40, 5}, {pfx("2001:db8::/32"), 48, 6},
                   {pfx("10.0.0.0/8"), 12, 5}, {pfx("10.0.0.0/8"), 8, 6}}),
        RpkiState(),
    };
    for (std::size_t i = 0; i < states.size(); ++i) {
        for (std::size_t j = 0; j < states.size(); ++j) {
            expectSameReport(states[i], states[j],
                             "edge state " + std::to_string(i) + " -> " + std::to_string(j));
        }
    }
}

TEST(DetectorOracle, EveryPairOfConsecutiveTraceDays) {
    const model::Trace trace = model::generateTrace({});
    ASSERT_GT(trace.entries.size(), 1u);
    auto prev = std::make_shared<const RpkiState>(trace.entries.front().state);
    PrefixValidityIndex prevIdx(prev);
    oracle::ValidityIndex prevOracle(*prev);
    for (std::size_t d = 1; d < trace.entries.size(); ++d) {
        auto cur = std::make_shared<const RpkiState>(trace.entries[d].state);
        PrefixValidityIndex curIdx(cur);
        oracle::ValidityIndex curOracle(*cur);
        ASSERT_EQ(serializeReport(diffStates(prevIdx, curIdx)),
                  serializeReport(oracle::diffStates(prevOracle, curOracle)))
            << "day " << d;
        prevIdx = std::move(curIdx);
        prevOracle = std::move(curOracle);
    }
}

Route randomRoute(Rng& rng, const RpkiState& s) {
    // Half the routes sit on or under a tuple of the state, the rest
    // anywhere — most of those announced by no tuple.
    const bool near = !s.tuples().empty() && rng.nextBool(0.5);
    const Asn asn = static_cast<Asn>(1 + rng.nextBelow(45));
    if (near) {
        const RoaTuple& t = s.tuples()[rng.nextBelow(s.tuples().size())];
        const int bits = t.prefix.bits();
        const int len = static_cast<int>(rng.nextInRange(t.prefix.length, bits));
        const U128 host{rng.nextU64(), rng.nextU64()};
        const U128 mask = bits == 128 ? U128::max() : U128{0, 0xffffffffull};
        IpPrefix p = t.prefix;
        p.addr = t.prefix.addr | ((host & mask) >> t.prefix.length);
        p.length = static_cast<std::uint8_t>(len);
        return Route{p.canonicalized(), rng.nextBool(0.5) ? t.asn : asn};
    }
    if (rng.nextBool(0.5)) {
        return Route{IpPrefix::v6(U128{rng.nextU64(), rng.nextU64()},
                                  static_cast<int>(rng.nextInRange(0, 128))),
                     asn};
    }
    return Route{IpPrefix::v4(static_cast<std::uint32_t>(rng.nextU64()),
                              static_cast<int>(rng.nextInRange(0, 32))),
                 asn};
}

TEST(DetectorOracle, ClassifyAgreesOnRandomRoutes) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 131);
        const RpkiState s = oracle::randomState(rng, 300, true);
        const PrefixValidityIndex idx(s);
        const oracle::ValidityIndex want(s);
        for (int i = 0; i < 4000; ++i) {
            const Route r = randomRoute(rng, s);
            ASSERT_EQ(idx.classify(r), want.classify(r)) << "seed " << seed << " " << r.str();
        }
    }
}

template <typename Set>
void expectSameLevels(const Set& got, const Set& want, const std::string& what) {
    for (int q = 0; q <= Set::kMaxLen; ++q) {
        ASSERT_EQ(got.level(q), want.level(q)) << what << " level " << q;
    }
}

TEST(DetectorOracle, IndexTrianglesMatchOracle) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed * 17);
        const RpkiState s = oracle::randomState(rng, 300, true);
        const PrefixValidityIndex idx(s);
        const oracle::ValidityIndex want(s);
        const std::string what = "seed " + std::to_string(seed);
        expectSameLevels(idx.knownTriangles(), want.knownTriangles(), what + " known");
        expectSameLevels(idx.knownTriangles6(), want.knownTriangles6(), what + " known6");
        ASSERT_EQ(idx.asns(), want.asns()) << what;
        for (const Asn a : want.asns()) {
            expectSameLevels(idx.validTriangles(a), want.validTriangles(a),
                             what + " AS" + std::to_string(a));
            expectSameLevels(idx.validTriangles6(a), want.validTriangles6(a),
                             what + " AS" + std::to_string(a) + " v6");
        }
    }
}

TEST(DetectorOracle, MaxLengthBeyondTheWidthIsRejected) {
    // RpkiState accepts any maxLength; the index must refuse one that
    // would address a level past the family width.
    EXPECT_THROW(PrefixValidityIndex(RpkiState({{pfx("10.0.0.0/8"), 33, 1}})), InvariantError);
    EXPECT_THROW(PrefixValidityIndex(RpkiState({{pfx("2001:db8::/32"), 129, 1}})),
                 InvariantError);
    EXPECT_NO_THROW(PrefixValidityIndex(RpkiState({{pfx("2001:db8::/32"), 128, 1}})));
}

}  // namespace
}  // namespace rpkic
