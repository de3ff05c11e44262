#include "detector/validity_index.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "util/errors.hpp"

namespace rpkic {

const TriangleSet PrefixValidityIndex::kEmptyTriangles{};
const TriangleSet6 PrefixValidityIndex::kEmptyTriangles6{};

namespace {

/// Sorted key list of an unordered per-ASN map: the deterministic fan-out
/// order for the parallel builds below. This is the sorted-drain shape
/// rclint's nondet-iteration rule recognizes — keep the push/sort pair
/// together if this is ever refactored.
template <typename MapT>
std::vector<Asn> sortedAsns(const MapT& byAs) {
    std::vector<Asn> keys;
    keys.reserve(byAs.size());
    for (const auto& [asn, raw] : byAs) keys.push_back(asn);
    std::sort(keys.begin(), keys.end());
    return keys;
}

}  // namespace

PrefixValidityIndex::PrefixValidityIndex(const RpkiState& state)
    : PrefixValidityIndex(std::make_shared<const RpkiState>(state),
                          rc::parallel::defaultPool()) {}

PrefixValidityIndex::PrefixValidityIndex(const RpkiState& state, rc::parallel::Pool& pool)
    : PrefixValidityIndex(std::make_shared<const RpkiState>(state), pool) {}

PrefixValidityIndex::PrefixValidityIndex(std::shared_ptr<const RpkiState> state)
    : PrefixValidityIndex(std::move(state), rc::parallel::defaultPool()) {}

PrefixValidityIndex::PrefixValidityIndex(std::shared_ptr<const RpkiState> state,
                                         rc::parallel::Pool& pool)
    : state_(std::move(state)) {
    // Index construction is the detector's coarse hot path (one build per
    // observed state); classify() is ns-scale and deliberately carries no
    // per-call instrumentation.
    const obs::Scope scope(
        "detector.index.build", "detector",
        obs::runtimeEnabled() ? &obs::Registry::global().histogram(
                                    "rc_detector_index_build_seconds",
                                    "Time to build a PrefixValidityIndex from an RpkiState")
                              : nullptr);
    // Known triangles: each tuple's range once, under its prefix length.
    TriangleSet::RawLevels knownByLength;
    TriangleSet6::RawLevels known6ByLength;
    std::unordered_map<Asn, TriangleSet::RawLevels> validRaw;
    std::unordered_map<Asn, TriangleSet6::RawLevels> valid6Raw;

    for (const auto& t : state_->tuples()) {
        // A maxLength past the address width would index past the levels.
        RC_CHECK(t.maxLength <= t.prefix.bits(),
                 "detector: maxLength beyond the address width in " + t.str());
        if (t.prefix.family == IpFamily::v4) {
            const Interval<std::uint64_t> range{t.prefix.firstAddress().toU64(),
                                                t.prefix.lastAddress().toU64()};
            // Valid triangle: depths len(P)..maxLength, the ROA's AS only.
            auto& vr = validRaw[t.asn];
            for (int q = t.prefix.length; q <= t.maxLength; ++q) vr[q].push_back(range);
            // Known triangle: depths len(P)..32, every AS.
            knownByLength[t.prefix.length].push_back(range);
        } else {
            const Interval<U128> range{t.prefix.firstAddress(), t.prefix.lastAddress()};
            auto& vr = valid6Raw[t.asn];
            for (int q = t.prefix.length; q <= t.maxLength; ++q) vr[q].push_back(range);
            known6ByLength[t.prefix.length].push_back(range);
        }
    }

    // Each known level depends on the one above it, so they are built in
    // order on this thread.
    known_ = TriangleSet::cumulative(knownByLength);
    known6_ = TriangleSet6::cumulative(known6ByLength);

    // Per-ASN valid triangles: one independent TriangleSet::build per AS,
    // fanned out over a deterministic sorted key order. Each worker owns
    // one result slot; triangle contents are per-key deterministic, so the
    // index is identical at every thread count.
    const std::vector<Asn> v4Keys = sortedAsns(validRaw);
    std::vector<TriangleSet> v4Built(v4Keys.size());
    pool.parallelFor(v4Keys.size(), [&](std::size_t i) {
        v4Built[i] = TriangleSet::build(validRaw.at(v4Keys[i]));
    });
    validByAs_.reserve(v4Keys.size());
    for (std::size_t i = 0; i < v4Keys.size(); ++i) {
        validByAs_.emplace(v4Keys[i], std::move(v4Built[i]));
    }

    const std::vector<Asn> v6Keys = sortedAsns(valid6Raw);
    std::vector<TriangleSet6> v6Built(v6Keys.size());
    pool.parallelFor(v6Keys.size(), [&](std::size_t i) {
        v6Built[i] = TriangleSet6::build(valid6Raw.at(v6Keys[i]));
    });
    valid6ByAs_.reserve(v6Keys.size());
    for (std::size_t i = 0; i < v6Keys.size(); ++i) {
        valid6ByAs_.emplace(v6Keys[i], std::move(v6Built[i]));
    }
}

RouteValidity PrefixValidityIndex::classify(const Route& route) const {
    if (route.prefix.family == IpFamily::v4) {
        const auto it = validByAs_.find(route.origin);
        if (it != validByAs_.end() && it->second.containsPrefix(route.prefix)) {
            return RouteValidity::Valid;
        }
        if (known_.containsPrefix(route.prefix)) return RouteValidity::Invalid;
        return RouteValidity::Unknown;
    }
    const auto it = valid6ByAs_.find(route.origin);
    if (it != valid6ByAs_.end() && it->second.containsPrefix(route.prefix)) {
        return RouteValidity::Valid;
    }
    if (known6_.containsPrefix(route.prefix)) return RouteValidity::Invalid;
    return RouteValidity::Unknown;
}

const TriangleSet& PrefixValidityIndex::validTriangles(Asn a) const {
    const auto it = validByAs_.find(a);
    return it == validByAs_.end() ? kEmptyTriangles : it->second;
}

const TriangleSet6& PrefixValidityIndex::validTriangles6(Asn a) const {
    const auto it = valid6ByAs_.find(a);
    return it == valid6ByAs_.end() ? kEmptyTriangles6 : it->second;
}

std::uint64_t PrefixValidityIndex::invalidFootprintAddresses() const {
    return known_.level(TriangleSet::kMaxLen).countU64();
}

std::vector<Asn> PrefixValidityIndex::asns() const {
    // Sorted drain: the unordered maps' bucket order must never leak into
    // caller-visible output (callers feed reports and transcripts).
    std::vector<Asn> out;
    out.reserve(validByAs_.size() + valid6ByAs_.size());
    for (const auto& [asn, tri] : validByAs_) out.push_back(asn);
    for (const auto& [asn, tri] : valid6ByAs_) out.push_back(asn);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

}  // namespace rpkic
