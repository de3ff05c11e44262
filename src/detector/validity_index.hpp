// The "prefix-validity" data structure of paper §4.1.
//
// Consider the complete binary tree of all IP prefixes. A ROA for
// (prefix P, maxLength m, AS a) makes a *triangle* of that tree valid for
// AS a: the subtree rooted at P down to depth m. It also makes a triangle
// *known* (the complement of "unknown") for every AS: the subtree rooted
// at P down to the bottom of the tree.
//
// We represent a triangle as one address interval per prefix length
// ("intervals at length i have endpoints that are integer multiples of
// 2^(32-i)"), and a union of triangles as one IntervalSet per length.
// Because every stored interval is a union of aligned level-q blocks, a
// level-q prefix is inside the set iff its whole range is inside one
// stored interval — so containsRange() answers membership exactly.
//
// Construction is O(n log n) for n tuples, as the paper claims. The
// known triangle is built without sorting: RpkiState keeps its tuples
// ordered by (family, address, length), so each prefix length's ranges
// arrive ordered by address, and level q is level q-1 merged with the
// ranges of length q. The structure is generic over address width: IPv4
// uses 33 levels over 64-bit storage, IPv6 129 levels over U128.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "detector/state.hpp"
#include "ip/interval_set.hpp"
#include "util/parallel.hpp"

namespace rpkic {

namespace detail {

/// Extracts the interval endpoint type for a prefix address.
template <typename AddrT>
AddrT addrValue(const U128& v) {
    if constexpr (std::is_same_v<AddrT, U128>) {
        return v;
    } else {
        return v.toU64();
    }
}

}  // namespace detail

/// Union of triangles over the prefix tree of an address family: one
/// interval set per prefix length 0..MaxLenV.
template <typename AddrT, int MaxLenV>
class BasicTriangleSet {
public:
    static constexpr int kMaxLen = MaxLenV;
    using RawLevels = std::array<std::vector<Interval<AddrT>>, MaxLenV + 1>;

    const IntervalSet<AddrT>& level(int length) const { return levels_.at(length); }

    bool containsPrefix(const IpPrefix& p) const {
        const AddrT lo = detail::addrValue<AddrT>(p.firstAddress());
        const AddrT hi = detail::addrValue<AddrT>(p.lastAddress());
        return levels_[p.length].containsRange(lo, hi);
    }

    /// Number of (prefix) nodes across all levels, exact in 64 bits.
    ///
    /// 64-bit address families (IPv4) count with shift-based integer
    /// block arithmetic — every stored interval is a whole number of
    /// aligned level-q blocks, so the block count is ((hi - lo) >> s) + 1
    /// with s = kMaxLen - q, and no double ever enters the sum. (The old
    /// path routed through prefixCountDouble() and silently lost
    /// exactness above 2^53.) IPv6 keeps the double path — its level-128
    /// block counts exceed any integer width — and saturates at the
    /// uint64 maximum.
    std::uint64_t prefixCount() const {
        if constexpr (std::is_same_v<AddrT, std::uint64_t>) {
            std::uint64_t total = 0;
            for (int q = 0; q <= kMaxLen; ++q) {
                const int shift = kMaxLen - q;
                for (const auto& iv : levels_[q].intervals()) {
                    // (hi - lo + 1) == blocks * 2^shift; computing
                    // ((hi - lo) >> shift) + 1 dodges the +1 overflow of
                    // a full-width interval.
                    total += ((iv.hi - iv.lo) >> shift) + 1;
                }
            }
            return total;
        } else {
            const double d = prefixCountDouble();
            if (d >= 18446744073709551615.0) return std::numeric_limits<std::uint64_t>::max();
            return static_cast<std::uint64_t>(d);
        }
    }

    /// Number of prefix nodes as a double (exact up to 2^53; IPv6 known
    /// triangles can exceed any integer width).
    double prefixCountDouble() const {
        double total = 0;
        for (int q = 0; q <= kMaxLen; ++q) {
            // Every interval at level q is a union of aligned level-q
            // blocks of size 2^(W-q).
            const double blockSize = std::ldexp(1.0, kMaxLen - q);
            total += levels_[q].countDouble() / blockSize;
        }
        return total;
    }

    /// Builds each level from raw interval lists in O(n log n).
    static BasicTriangleSet build(const RawLevels& raw) {
        BasicTriangleSet t;
        for (int q = 0; q <= kMaxLen; ++q) {
            t.levels_[q] = IntervalSet<AddrT>::fromIntervals(raw[q]);
        }
        return t;
    }

    /// Builds the union of triangles that all reach the bottom level (a
    /// known triangle): `byTop[q]` holds the ranges of the triangles whose
    /// top is level q, each list ordered by lo (RC_CHECKed, not sorted).
    /// Level q is level q-1 merged with byTop[q], so each range is merged
    /// once instead of pushed into every level below its top.
    static BasicTriangleSet cumulative(const RawLevels& byTop) {
        BasicTriangleSet t;
        for (int q = 0; q <= kMaxLen; ++q) {
            const IntervalSet<AddrT> starting = IntervalSet<AddrT>::fromSorted(byTop[q]);
            t.levels_[q] = q == 0 ? starting : t.levels_[q - 1].unionWith(starting);
        }
        return t;
    }

    BasicTriangleSet subtract(const BasicTriangleSet& o) const {
        BasicTriangleSet out;
        for (int q = 0; q <= kMaxLen; ++q) out.levels_[q] = levels_[q].subtract(o.levels_[q]);
        return out;
    }

    BasicTriangleSet intersect(const BasicTriangleSet& o) const {
        BasicTriangleSet out;
        for (int q = 0; q <= kMaxLen; ++q) out.levels_[q] = levels_[q].intersect(o.levels_[q]);
        return out;
    }

    BasicTriangleSet unionWith(const BasicTriangleSet& o) const {
        BasicTriangleSet out;
        for (int q = 0; q <= kMaxLen; ++q) out.levels_[q] = levels_[q].unionWith(o.levels_[q]);
        return out;
    }

    bool empty() const {
        for (int q = 0; q <= kMaxLen; ++q) {
            if (!levels_[q].empty()) return false;
        }
        return true;
    }

private:
    std::array<IntervalSet<AddrT>, MaxLenV + 1> levels_;
};

/// IPv4 triangles (the paper's evaluation family).
using TriangleSet = BasicTriangleSet<std::uint64_t, 32>;
/// IPv6 triangles.
using TriangleSet6 = BasicTriangleSet<U128, 128>;

/// The per-state index: classifies any route (pi, a) — over the space of
/// *all possible* routes, not just ones seen at a BGP vantage point — and
/// exposes the triangles the diff engine needs.
class PrefixValidityIndex {
public:
    /// Builds on the process default pool (sequential unless RC_THREADS /
    /// --threads raised it). Copies `state` into a shared handle once.
    explicit PrefixValidityIndex(const RpkiState& state);
    /// Builds on an explicit pool.
    PrefixValidityIndex(const RpkiState& state, rc::parallel::Pool& pool);
    /// Shares an existing state without copying its tuple set — the form
    /// the daily diff pipeline uses so two indexes over consecutive
    /// snapshots never duplicate the full tuple vector.
    explicit PrefixValidityIndex(std::shared_ptr<const RpkiState> state);
    PrefixValidityIndex(std::shared_ptr<const RpkiState> state, rc::parallel::Pool& pool);

    /// RFC 6483/6811 classification (paper §2.2).
    RouteValidity classify(const Route& route) const;

    /// Triangle of IPv4 routes valid for AS a. Empty if the AS appears in
    /// no IPv4 ROA.
    const TriangleSet& validTriangles(Asn a) const;
    /// Triangle of "known" (covered) IPv4 space: level q holds the address
    /// ranges of all ROA prefixes of length <= q.
    const TriangleSet& knownTriangles() const { return known_; }

    /// IPv6 counterparts.
    const TriangleSet6& validTriangles6(Asn a) const;
    const TriangleSet6& knownTriangles6() const { return known6_; }

    /// Figure-4 metric: the number of IPv4 addresses that are "invalid for
    /// at least one AS", i.e. covered by at least one ROA.
    std::uint64_t invalidFootprintAddresses() const;

    /// ASes that appear in at least one ROA of the state.
    std::vector<Asn> asns() const;

    const RpkiState& state() const { return *state_; }
    /// The shared handle, so callers can alias the state without copying.
    const std::shared_ptr<const RpkiState>& stateHandle() const { return state_; }

private:
    // Held by shared_ptr: copying an index (or indexing the same snapshot
    // twice via stateHandle) must not duplicate the full tuple set.
    std::shared_ptr<const RpkiState> state_;
    TriangleSet known_;
    TriangleSet6 known6_;
    std::unordered_map<Asn, TriangleSet> validByAs_;
    std::unordered_map<Asn, TriangleSet6> valid6ByAs_;
    static const TriangleSet kEmptyTriangles;
    static const TriangleSet6 kEmptyTriangles6;
};

}  // namespace rpkic
