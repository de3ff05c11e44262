// The downgrade detector (paper §4.1): compares two RPKI states and
// reports every route whose validity state changed, over the space of all
// possible routes (pi, a) — independent of any particular BGP vantage
// point.
//
// Pair counts for "valid -> {invalid, unknown}" are finite because "valid"
// requires the AS to appear in a ROA. "unknown -> invalid" pair counts are
// computed over the tracked AS universe (ASes appearing in either state);
// at address granularity the paper's Figure-4 metric (addresses invalid
// for at least one AS) is exposed separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detector/validity_index.hpp"
#include "util/parallel.hpp"

namespace rpkic {

/// A route whose validity state differs between the two states.
struct RouteTransition {
    Route route;
    RouteValidity before = RouteValidity::Unknown;
    RouteValidity after = RouteValidity::Unknown;

    bool isDowngrade() const {
        return static_cast<int>(after) > static_cast<int>(before) ||
               (before == RouteValidity::Valid && after != RouteValidity::Valid);
    }

    auto operator<=>(const RouteTransition&) const = default;
};

/// Per-AS downgrade detail with bounded example prefixes.
struct AsDowngrades {
    Asn asn = 0;
    std::uint64_t validToInvalidPairs = 0;
    std::uint64_t validToUnknownPairs = 0;
    std::uint64_t unknownToInvalidPairs = 0;
    std::vector<IpPrefix> exampleLostValid;  ///< up to maxExamples prefixes
};

/// A newly added ROA tuple whose prefix is covered by an existing ROA for
/// a DIFFERENT AS — Kent et al.'s "competing ROA" threat (paper §6): if
/// BGP is later attacked, the AS in the competing ROA can hijack the
/// older ROA's routes, and the competing ROA itself is non-repudiable
/// evidence of the attack.
struct CompetingRoa {
    RoaTuple added;     ///< the new tuple
    RoaTuple existing;  ///< the older tuple whose space it contests

    auto operator<=>(const CompetingRoa&) const = default;
};

struct DowngradeReport {
    // (pi, a) pair counts across all prefix lengths.
    std::uint64_t validToInvalidPairs = 0;
    std::uint64_t validToUnknownPairs = 0;
    std::uint64_t unknownToValidPairs = 0;   ///< upgrades, for completeness
    std::uint64_t unknownToInvalidPairs = 0; ///< over the tracked AS universe

    // Figure-4 metric for both states (addresses covered by >= 1 ROA).
    std::uint64_t invalidAddressesBefore = 0;
    std::uint64_t invalidAddressesAfter = 0;

    /// Validity transitions of the routes directly announced by ROA tuples
    /// of either state (the "(prefix, AS, maxlength)-tuples that appear or
    /// disappear" the paper iterates over), plus tuples whose announced
    /// route changed state due to *other* changes.
    std::vector<RouteTransition> tupleTransitions;

    /// Per-AS breakdown, only for ASes with at least one downgraded pair.
    std::vector<AsDowngrades> perAs;

    /// Newly added ROAs contesting existing ROAs' space (paper §6).
    std::vector<CompetingRoa> competingRoas;

    bool hasDowngrades() const {
        return validToInvalidPairs > 0 || validToUnknownPairs > 0 || unknownToInvalidPairs > 0;
    }
};

/// The tuple-level delta between two states: exactly what an RTR-style
/// cache must send a client to move it from `prev` to `cur` (announce
/// what appeared, withdraw what vanished). Both vectors inherit the
/// states' canonical sorted order, so the delta — like the report — is
/// byte-identical at every thread count.
struct TupleDelta {
    std::vector<RoaTuple> announced;  ///< in cur, not in prev
    std::vector<RoaTuple> withdrawn;  ///< in prev, not in cur

    bool empty() const { return announced.empty() && withdrawn.empty(); }
};

/// Computes the announce/withdraw sets (linear in the two state sizes).
TupleDelta tupleDelta(const RpkiState& prev, const RpkiState& cur);

/// Extracts up to `maxCount` prefixes from a triangle set (for reports and
/// visualization).
std::vector<IpPrefix> samplePrefixes(const TriangleSet& t, std::size_t maxCount);

/// Compares two indexed states. Set operations run only for the ASes
/// the tuple delta touches, and only their routes are classified, so
/// beyond linear sweeps of the tuple vectors and AS lists the cost
/// follows the churn, not the state size.
/// Runs on the process default pool (sequential unless RC_THREADS /
/// --threads raised it); reports are byte-identical at every thread count.
DowngradeReport diffStates(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur,
                           std::size_t maxExamples = 8);

/// Same, on an explicit pool.
DowngradeReport diffStates(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur,
                           std::size_t maxExamples, rc::parallel::Pool& pool);

/// Convenience overload building the indexes internally.
DowngradeReport diffStates(const RpkiState& prev, const RpkiState& cur,
                           std::size_t maxExamples = 8);

/// Newly added tuples of `cur` (relative to `prev`) whose prefix is
/// covered by a `prev` tuple under a different AS (paper §6). Uses a
/// covering walk over `prev`'s sorted tuples: O(|added| * W log |prev|)
/// with W the address width — replacing the old O(|added| * |prev|) scan.
/// Output order matches the historical nested-loop order (added tuples in
/// state order, covering tuples in state order).
std::vector<CompetingRoa> findCompetingRoas(const RpkiState& prev, const RpkiState& cur,
                                            rc::parallel::Pool& pool);

/// Canonical plain-text rendering of every field of a report. Two reports
/// are equal iff their serializations are byte-identical — the property
/// the cross-thread-count differential tests and the bench harness check.
std::string serializeReport(const DowngradeReport& report);

/// The triangle of IPv4 space that downgraded unknown -> invalid for AS
/// `a` in the transition prev -> cur (used by the Figure-6 visualizer).
TriangleSet unknownToInvalidTriangles(const PrefixValidityIndex& prev,
                                      const PrefixValidityIndex& cur, Asn a);

}  // namespace rpkic
