// The detector as it stood before the churn-proportional diff, kept as
// the differential oracle for src/detector: an index that pushes each
// tuple's range into every level its triangles span and sorts every
// level, and a diff that runs set operations for every AS and classifies
// every route of both states. Nothing outside tests/ may depend on it.
//
// Also home to the seeded state generators the detector suites share.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "detector/diff.hpp"
#include "util/rng.hpp"

namespace rpkic::oracle {

/// The per-state index, built by pushing each tuple's range into every
/// level its triangles span.
class ValidityIndex {
public:
    explicit ValidityIndex(const RpkiState& state);

    RouteValidity classify(const Route& route) const;
    const TriangleSet& validTriangles(Asn a) const;
    const TriangleSet6& validTriangles6(Asn a) const;
    const TriangleSet& knownTriangles() const { return known_; }
    const TriangleSet6& knownTriangles6() const { return known6_; }
    std::uint64_t invalidFootprintAddresses() const;
    std::vector<Asn> asns() const;
    const RpkiState& state() const { return state_; }

private:
    RpkiState state_;
    TriangleSet known_;
    TriangleSet6 known6_;
    std::map<Asn, TriangleSet> validByAs_;
    std::map<Asn, TriangleSet6> valid6ByAs_;
};

/// The full diff: set operations for every AS of either state, and every
/// route announced by a tuple of either state classified under both.
DowngradeReport diffStates(const ValidityIndex& prev, const ValidityIndex& cur,
                           std::size_t maxExamples = 8);

/// Convenience overload building the indexes internally.
DowngradeReport diffStates(const RpkiState& prev, const RpkiState& cur,
                           std::size_t maxExamples = 8);

/// The nested-loop §6 scan: each added tuple against every previous tuple.
std::vector<CompetingRoa> competingRoas(const RpkiState& prev, const RpkiState& cur);

// ---------------------------------------------------------------------------
// Seeded generators shared by the detector suites.

/// `tuples` random tuples over 40 ASes; with `withV6`, a quarter IPv6.
RpkiState randomState(Rng& rng, std::size_t tuples, bool withV6);

/// Drops ~20% of `base` and adds `churn` fresh tuples: consecutive
/// snapshots share most of their content, like real RPKI days.
RpkiState churned(Rng& rng, const RpkiState& base, std::size_t churn, bool withV6);

}  // namespace rpkic::oracle
