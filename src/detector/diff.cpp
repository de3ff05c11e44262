#include "detector/diff.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/obs.hpp"
#include "util/errors.hpp"

namespace rpkic {

TupleDelta tupleDelta(const RpkiState& prev, const RpkiState& cur) {
    TupleDelta delta;
    delta.announced = cur.minus(prev);
    delta.withdrawn = prev.minus(cur);
    return delta;
}

std::vector<IpPrefix> samplePrefixes(const TriangleSet& t, std::size_t maxCount) {
    std::vector<IpPrefix> out;
    for (int q = 0; q <= TriangleSet::kMaxLen && out.size() < maxCount; ++q) {
        const std::uint64_t block = 1ULL << (TriangleSet::kMaxLen - q);
        for (const auto& iv : t.level(q).intervals()) {
            for (std::uint64_t lo = iv.lo; lo <= iv.hi && out.size() < maxCount; lo += block) {
                out.push_back(IpPrefix::v4(static_cast<std::uint32_t>(lo), q));
            }
            if (out.size() >= maxCount) break;
        }
    }
    return out;
}

namespace {

/// Merges the AS universes of both states.
std::vector<Asn> trackedAsns(const PrefixValidityIndex& a, const PrefixValidityIndex& b) {
    std::vector<Asn> out = a.asns();
    const std::vector<Asn> other = b.asns();
    out.insert(out.end(), other.begin(), other.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// The length-`len` ancestor of `p`'s first address in the prefix tree.
U128 ancestorFirstAddress(const IpPrefix& p, int len) {
    const int shift = familyBits(p.family) - len;
    return (p.firstAddress() >> shift) << shift;
}

/// Prefix-keyed lookup over a state's (sorted) tuple vector: for a query
/// prefix, walk its <= W+1 ancestor prefixes and collect every tuple
/// registered at one of them — the covering set — in O(W log n) instead
/// of a linear scan. Keys carry the tuple's position so matches can be
/// emitted in exact state order (what the old quadratic scan produced).
class CoveringTupleIndex {
public:
    explicit CoveringTupleIndex(const std::vector<RoaTuple>& tuples) : tuples_(tuples) {
        keys_.reserve(tuples.size());
        for (std::uint32_t i = 0; i < tuples.size(); ++i) {
            const IpPrefix& p = tuples[i].prefix;
            keys_.push_back({p.firstAddress(), i, p.length, p.family});
        }
        std::sort(keys_.begin(), keys_.end(), [](const Key& a, const Key& b) {
            if (a.family != b.family) return a.family < b.family;
            if (a.first != b.first) return a.first < b.first;
            if (a.length != b.length) return a.length < b.length;
            return a.index < b.index;
        });
    }

    /// Tuples of the indexed state covering `query` under an AS other
    /// than `exclude`, in state (sorted-tuple) order.
    std::vector<RoaTuple> coveringTuples(const IpPrefix& query, Asn exclude) const {
        std::vector<std::uint32_t> matches;
        for (int len = 0; len <= query.length; ++len) {
            const U128 first = ancestorFirstAddress(query, len);
            const auto probe = [&](const Key& k) {
                if (k.family != query.family) return k.family < query.family;
                if (k.first != first) return k.first < first;
                return k.length < len;
            };
            auto it = std::lower_bound(keys_.begin(), keys_.end(), Key{},
                                       [&](const Key& k, const Key&) { return probe(k); });
            for (; it != keys_.end() && it->family == query.family && it->first == first &&
                   it->length == len;
                 ++it) {
                if (tuples_[it->index].asn != exclude) matches.push_back(it->index);
            }
        }
        // Tuple positions ascend with tuple sort order, so sorting the
        // positions reproduces the historical scan order exactly.
        std::sort(matches.begin(), matches.end());
        std::vector<RoaTuple> out;
        out.reserve(matches.size());
        for (const std::uint32_t i : matches) out.push_back(tuples_[i]);
        return out;
    }

private:
    struct Key {
        U128 first;
        std::uint32_t index = 0;
        std::uint8_t length = 0;
        IpFamily family = IpFamily::v4;
    };

    const std::vector<RoaTuple>& tuples_;
    std::vector<Key> keys_;
};

}  // namespace

std::vector<CompetingRoa> findCompetingRoas(const RpkiState& prev, const RpkiState& cur,
                                            rc::parallel::Pool& pool) {
    const std::vector<RoaTuple> added = cur.minus(prev);
    if (added.empty()) return {};
    const CoveringTupleIndex index(prev.tuples());

    // Fan out per added tuple; reassemble in added (state) order so the
    // output is byte-identical to the sequential path.
    const std::vector<std::vector<CompetingRoa>> perAdded =
        pool.parallelMap<std::vector<CompetingRoa>>(added.size(), [&](std::size_t i) {
            std::vector<CompetingRoa> hits;
            for (const RoaTuple& existing :
                 index.coveringTuples(added[i].prefix, added[i].asn)) {
                hits.push_back({added[i], existing});
            }
            return hits;
        });

    std::vector<CompetingRoa> out;
    for (const auto& hits : perAdded) out.insert(out.end(), hits.begin(), hits.end());
    return out;
}

DowngradeReport diffStates(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur,
                           std::size_t maxExamples, rc::parallel::Pool& pool) {
    const obs::Scope scope("detector.diff", "detector",
                           obs::runtimeEnabled()
                               ? &obs::Registry::global().histogram(
                                     "rc_detector_diff_seconds", "Time to diff two validity indexes")
                               : nullptr);
    DowngradeReport report;
    report.invalidAddressesBefore = prev.invalidFootprintAddresses();
    report.invalidAddressesAfter = cur.invalidFootprintAddresses();

    const TriangleSet& knownPrev = prev.knownTriangles();
    const TriangleSet& knownCur = cur.knownTriangles();
    const TriangleSet newlyKnown = knownCur.subtract(knownPrev);
    const TriangleSet6& known6Prev = prev.knownTriangles6();
    const TriangleSet6& known6Cur = cur.knownTriangles6();

    // Per-ASN diff rows are fully independent: fan them out, then merge
    // the commutative tally in ASN order so the report is byte-identical
    // to the sequential path at every thread count.
    struct AsnPartial {
        AsDowngrades row;
        std::uint64_t unknownToValidPairs = 0;
    };
    const std::vector<Asn> asns = trackedAsns(prev, cur);
    const std::vector<AsnPartial> partials =
        pool.parallelMap<AsnPartial>(asns.size(), [&](std::size_t k) {
            const Asn asn = asns[k];
            AsnPartial part;
            AsDowngrades& row = part.row;
            row.asn = asn;

            const TriangleSet& validPrev = prev.validTriangles(asn);
            const TriangleSet& validCur = cur.validTriangles(asn);

            const TriangleSet lost = validPrev.subtract(validCur);
            if (!lost.empty()) {
                const TriangleSet toInvalid = lost.intersect(knownCur);
                row.validToInvalidPairs = toInvalid.prefixCount();
                row.validToUnknownPairs = lost.prefixCount() - row.validToInvalidPairs;
                row.exampleLostValid = samplePrefixes(lost, maxExamples);
            }

            const TriangleSet gained = validCur.subtract(validPrev);
            if (!gained.empty()) {
                // Upgrades from unknown (not previously covered) to valid.
                part.unknownToValidPairs += gained.subtract(knownPrev).prefixCount();
            }

            // IPv6: valid triangles are bounded by maxLength, so the pair
            // counts stay meaningful; unknown->invalid for v6 is omitted
            // (the known triangle reaches depth 128 and the count is
            // astronomical — the paper's evaluation, like routers'
            // acceptance of long prefixes, is IPv4-granular).
            const TriangleSet6& valid6Prev = prev.validTriangles6(asn);
            const TriangleSet6& valid6Cur = cur.validTriangles6(asn);
            const TriangleSet6 lost6 = valid6Prev.subtract(valid6Cur);
            if (!lost6.empty()) {
                const std::uint64_t lostCount = lost6.prefixCount();
                const std::uint64_t toInvalid6 = lost6.intersect(known6Cur).prefixCount();
                // A set intersection can never outgrow its source; the old
                // code clamped this "impossible excess" to zero, hiding
                // any counting bug behind it. Fail loudly instead.
                RC_CHECK(toInvalid6 <= lostCount,
                         "detector: lost6 ∩ known6 larger than lost6");
                row.validToInvalidPairs += toInvalid6;
                row.validToUnknownPairs += lostCount - toInvalid6;
            }
            const TriangleSet6 gained6 = valid6Cur.subtract(valid6Prev);
            if (!gained6.empty()) {
                part.unknownToValidPairs += gained6.subtract(known6Prev).prefixCount();
            }

            // unknown -> invalid for this AS: space that became covered
            // and is not valid for the AS now.
            const TriangleSet nowInvalid = newlyKnown.subtract(validCur);
            row.unknownToInvalidPairs = nowInvalid.prefixCount();
            return part;
        });

    for (const AsnPartial& part : partials) {
        report.unknownToValidPairs += part.unknownToValidPairs;
        report.validToInvalidPairs += part.row.validToInvalidPairs;
        report.validToUnknownPairs += part.row.validToUnknownPairs;
        report.unknownToInvalidPairs += part.row.unknownToInvalidPairs;
        if (part.row.validToInvalidPairs > 0 || part.row.validToUnknownPairs > 0 ||
            part.row.unknownToInvalidPairs > 0) {
            report.perAs.push_back(part.row);
        }
    }

    // Competing ROAs (paper §6): each tuple that appeared, checked against
    // the previous state's tuples covering its prefix under another AS —
    // via the prefix-keyed covering index, not the old quadratic scan.
    report.competingRoas = findCompetingRoas(prev.state(), cur.state(), pool);

    // Tuple-level transitions: evaluate the announced route of every tuple
    // appearing in either state under both indexes.
    std::vector<RoaTuple> allTuples = prev.state().tuples();
    const auto& curTuples = cur.state().tuples();
    allTuples.insert(allTuples.end(), curTuples.begin(), curTuples.end());
    std::sort(allTuples.begin(), allTuples.end());
    allTuples.erase(std::unique(allTuples.begin(), allTuples.end()), allTuples.end());

    std::vector<Route> routes;
    routes.reserve(allTuples.size());
    for (const auto& t : allTuples) routes.push_back(t.announcedRoute());
    std::sort(routes.begin(), routes.end());
    routes.erase(std::unique(routes.begin(), routes.end()), routes.end());

    struct MaybeTransition {
        RouteTransition transition;
        bool changed = false;
    };
    const std::vector<MaybeTransition> transitions =
        pool.parallelMap<MaybeTransition>(routes.size(), [&](std::size_t i) {
            MaybeTransition out;
            const RouteValidity before = prev.classify(routes[i]);
            const RouteValidity after = cur.classify(routes[i]);
            if (before != after) {
                out.transition = {routes[i], before, after};
                out.changed = true;
            }
            return out;
        });
    for (const MaybeTransition& t : transitions) {
        if (t.changed) report.tupleTransitions.push_back(t.transition);
    }

    // Downgrade counts by kind (paper §6: the transitions that can strand
    // legitimate routes). Registered lazily; the registry dedupes.
    const auto downgrades = [](const char* kind) -> obs::Counter& {
        return obs::Registry::global().counter(
            "rc_detector_downgrades_total",
            "Prefix-AS pairs whose validity was downgraded by a state change",
            {{"kind", kind}});
    };
    RC_OBS_COUNT(downgrades("valid-to-invalid"), report.validToInvalidPairs);
    RC_OBS_COUNT(downgrades("valid-to-unknown"), report.validToUnknownPairs);
    RC_OBS_COUNT(downgrades("unknown-to-invalid"), report.unknownToInvalidPairs);
    RC_OBS_COUNT(obs::Registry::global().counter(
                     "rc_detector_diffs_total", "State diffs computed by the detector"),
                 1);
    return report;
}

DowngradeReport diffStates(const PrefixValidityIndex& prev, const PrefixValidityIndex& cur,
                           std::size_t maxExamples) {
    return diffStates(prev, cur, maxExamples, rc::parallel::defaultPool());
}

DowngradeReport diffStates(const RpkiState& prev, const RpkiState& cur,
                           std::size_t maxExamples) {
    rc::parallel::Pool& pool = rc::parallel::defaultPool();
    return diffStates(PrefixValidityIndex(prev, pool), PrefixValidityIndex(cur, pool),
                      maxExamples, pool);
}

std::string serializeReport(const DowngradeReport& r) {
    std::string out;
    const auto line = [&out](const std::string& key, std::uint64_t v) {
        out += key + "=" + std::to_string(v) + "\n";
    };
    line("validToInvalidPairs", r.validToInvalidPairs);
    line("validToUnknownPairs", r.validToUnknownPairs);
    line("unknownToValidPairs", r.unknownToValidPairs);
    line("unknownToInvalidPairs", r.unknownToInvalidPairs);
    line("invalidAddressesBefore", r.invalidAddressesBefore);
    line("invalidAddressesAfter", r.invalidAddressesAfter);
    line("tupleTransitions", r.tupleTransitions.size());
    for (const RouteTransition& t : r.tupleTransitions) {
        out += "  " + t.route.str() + " " + std::string(toString(t.before)) + "->" +
               std::string(toString(t.after)) + "\n";
    }
    line("perAs", r.perAs.size());
    for (const AsDowngrades& as : r.perAs) {
        out += "  AS" + std::to_string(as.asn) + " v2i=" +
               std::to_string(as.validToInvalidPairs) + " v2u=" +
               std::to_string(as.validToUnknownPairs) + " u2i=" +
               std::to_string(as.unknownToInvalidPairs) + " examples=";
        for (const IpPrefix& p : as.exampleLostValid) out += p.str() + ",";
        out += "\n";
    }
    line("competingRoas", r.competingRoas.size());
    for (const CompetingRoa& c : r.competingRoas) {
        out += "  " + c.added.str() + " contests " + c.existing.str() + "\n";
    }
    return out;
}

TriangleSet unknownToInvalidTriangles(const PrefixValidityIndex& prev,
                                      const PrefixValidityIndex& cur, Asn a) {
    const TriangleSet newlyKnown = cur.knownTriangles().subtract(prev.knownTriangles());
    return newlyKnown.subtract(cur.validTriangles(a));
}

}  // namespace rpkic
