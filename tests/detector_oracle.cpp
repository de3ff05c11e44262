#include "detector_oracle.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace rpkic::oracle {

ValidityIndex::ValidityIndex(const RpkiState& state) : state_(state) {
    TriangleSet::RawLevels knownRaw;
    TriangleSet6::RawLevels known6Raw;
    std::map<Asn, TriangleSet::RawLevels> validRaw;
    std::map<Asn, TriangleSet6::RawLevels> valid6Raw;

    for (const auto& t : state_.tuples()) {
        if (t.prefix.family == IpFamily::v4) {
            const Interval<std::uint64_t> range{t.prefix.firstAddress().toU64(),
                                                t.prefix.lastAddress().toU64()};
            auto& vr = validRaw[t.asn];
            for (int q = t.prefix.length; q <= t.maxLength; ++q) vr[q].push_back(range);
            for (int q = t.prefix.length; q <= TriangleSet::kMaxLen; ++q) {
                knownRaw[q].push_back(range);
            }
        } else {
            const Interval<U128> range{t.prefix.firstAddress(), t.prefix.lastAddress()};
            auto& vr = valid6Raw[t.asn];
            for (int q = t.prefix.length; q <= t.maxLength; ++q) vr[q].push_back(range);
            for (int q = t.prefix.length; q <= TriangleSet6::kMaxLen; ++q) {
                known6Raw[q].push_back(range);
            }
        }
    }
    known_ = TriangleSet::build(knownRaw);
    known6_ = TriangleSet6::build(known6Raw);
    for (const auto& [asn, raw] : validRaw) validByAs_.emplace(asn, TriangleSet::build(raw));
    for (const auto& [asn, raw] : valid6Raw) valid6ByAs_.emplace(asn, TriangleSet6::build(raw));
}

RouteValidity ValidityIndex::classify(const Route& route) const {
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

const TriangleSet& ValidityIndex::validTriangles(Asn a) const {
    static const TriangleSet empty;
    const auto it = validByAs_.find(a);
    return it == validByAs_.end() ? empty : it->second;
}

const TriangleSet6& ValidityIndex::validTriangles6(Asn a) const {
    static const TriangleSet6 empty;
    const auto it = valid6ByAs_.find(a);
    return it == valid6ByAs_.end() ? empty : it->second;
}

std::uint64_t ValidityIndex::invalidFootprintAddresses() const {
    return known_.level(TriangleSet::kMaxLen).countU64();
}

std::vector<Asn> ValidityIndex::asns() const {
    std::vector<Asn> out;
    for (const auto& [asn, tri] : validByAs_) out.push_back(asn);
    for (const auto& [asn, tri] : valid6ByAs_) out.push_back(asn);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

DowngradeReport diffStates(const ValidityIndex& prev, const ValidityIndex& cur,
                           std::size_t maxExamples) {
    DowngradeReport report;
    report.invalidAddressesBefore = prev.invalidFootprintAddresses();
    report.invalidAddressesAfter = cur.invalidFootprintAddresses();

    const TriangleSet& knownPrev = prev.knownTriangles();
    const TriangleSet& knownCur = cur.knownTriangles();
    const TriangleSet newlyKnown = knownCur.subtract(knownPrev);
    const TriangleSet6& known6Prev = prev.knownTriangles6();
    const TriangleSet6& known6Cur = cur.knownTriangles6();

    std::vector<Asn> asns = prev.asns();
    for (const Asn a : cur.asns()) asns.push_back(a);
    std::sort(asns.begin(), asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());

    for (const Asn asn : asns) {
        AsDowngrades row;
        row.asn = asn;
        const TriangleSet& validPrev = prev.validTriangles(asn);
        const TriangleSet& validCur = cur.validTriangles(asn);

        const TriangleSet lost = validPrev.subtract(validCur);
        if (!lost.empty()) {
            row.validToInvalidPairs = lost.intersect(knownCur).prefixCount();
            row.validToUnknownPairs = lost.prefixCount() - row.validToInvalidPairs;
            row.exampleLostValid = samplePrefixes(lost, maxExamples);
        }
        const TriangleSet gained = validCur.subtract(validPrev);
        if (!gained.empty()) {
            report.unknownToValidPairs += gained.subtract(knownPrev).prefixCount();
        }

        const TriangleSet6& valid6Prev = prev.validTriangles6(asn);
        const TriangleSet6& valid6Cur = cur.validTriangles6(asn);
        const TriangleSet6 lost6 = valid6Prev.subtract(valid6Cur);
        if (!lost6.empty()) {
            const std::uint64_t lostCount = lost6.prefixCount();
            const std::uint64_t toInvalid6 = lost6.intersect(known6Cur).prefixCount();
            RC_CHECK(toInvalid6 <= lostCount, "oracle: lost6 ∩ known6 larger than lost6");
            row.validToInvalidPairs += toInvalid6;
            row.validToUnknownPairs += lostCount - toInvalid6;
        }
        const TriangleSet6 gained6 = valid6Cur.subtract(valid6Prev);
        if (!gained6.empty()) {
            report.unknownToValidPairs += gained6.subtract(known6Prev).prefixCount();
        }

        row.unknownToInvalidPairs = newlyKnown.subtract(validCur).prefixCount();

        report.validToInvalidPairs += row.validToInvalidPairs;
        report.validToUnknownPairs += row.validToUnknownPairs;
        report.unknownToInvalidPairs += row.unknownToInvalidPairs;
        if (row.validToInvalidPairs > 0 || row.validToUnknownPairs > 0 ||
            row.unknownToInvalidPairs > 0) {
            report.perAs.push_back(row);
        }
    }

    report.competingRoas = competingRoas(prev.state(), cur.state());

    std::vector<Route> routes;
    for (const auto* s : {&prev.state(), &cur.state()}) {
        for (const RoaTuple& t : s->tuples()) routes.push_back(t.announcedRoute());
    }
    std::sort(routes.begin(), routes.end());
    routes.erase(std::unique(routes.begin(), routes.end()), routes.end());
    for (const Route& r : routes) {
        const RouteValidity before = prev.classify(r);
        const RouteValidity after = cur.classify(r);
        if (before != after) report.tupleTransitions.push_back({r, before, after});
    }
    return report;
}

DowngradeReport diffStates(const RpkiState& prev, const RpkiState& cur,
                           std::size_t maxExamples) {
    return diffStates(ValidityIndex(prev), ValidityIndex(cur), maxExamples);
}

std::vector<CompetingRoa> competingRoas(const RpkiState& prev, const RpkiState& cur) {
    std::vector<CompetingRoa> out;
    for (const auto& added : cur.minus(prev)) {
        for (const auto& existing : prev.tuples()) {
            if (existing.asn == added.asn) continue;
            if (existing.prefix.covers(added.prefix)) out.push_back({added, existing});
        }
    }
    return out;
}

RpkiState randomState(Rng& rng, std::size_t tuples, bool withV6) {
    std::vector<RoaTuple> out;
    out.reserve(tuples);
    for (std::size_t i = 0; i < tuples; ++i) {
        const Asn asn = static_cast<Asn>(1 + rng.nextBelow(40));
        if (withV6 && rng.nextBool(0.25)) {
            const int len = static_cast<int>(rng.nextInRange(16, 64));
            const U128 addr{rng.nextU64(), rng.nextU64()};
            const auto maxLen = static_cast<std::uint8_t>(
                rng.nextInRange(static_cast<std::uint64_t>(len),
                                static_cast<std::uint64_t>(std::min(len + 16, 128))));
            out.push_back({IpPrefix::v6(addr, len), maxLen, asn});
        } else {
            const int len = static_cast<int>(rng.nextInRange(8, 28));
            const auto addr = static_cast<std::uint32_t>(rng.nextU64());
            const auto maxLen = static_cast<std::uint8_t>(
                rng.nextInRange(static_cast<std::uint64_t>(len), 32));
            out.push_back({IpPrefix::v4(addr, len), maxLen, asn});
        }
    }
    return RpkiState(std::move(out));
}

RpkiState churned(Rng& rng, const RpkiState& base, std::size_t churn, bool withV6) {
    std::vector<RoaTuple> out;
    for (const auto& t : base.tuples()) {
        if (!rng.nextBool(0.2)) out.push_back(t);
    }
    const RpkiState fresh = randomState(rng, churn, withV6);
    out.insert(out.end(), fresh.tuples().begin(), fresh.tuples().end());
    return RpkiState(std::move(out));
}

}  // namespace rpkic::oracle
