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

/// ASes with at least one announced or withdrawn tuple, ascending: the
/// only ASes whose valid triangles differ between the two states.
std::vector<Asn> touchedAsns(const TupleDelta& delta) {
    std::vector<Asn> out;
    out.reserve(delta.announced.size() + delta.withdrawn.size());
    for (const RoaTuple& t : delta.announced) out.push_back(t.asn);
    for (const RoaTuple& t : delta.withdrawn) out.push_back(t.asn);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// The routes whose classification can differ between the two states:
/// those announced by a tuple of a touched AS. A route of any other AS is
/// announced by the same tuple in both states, so that tuple keeps its
/// prefix known in both, and the AS's valid triangles are the same in
/// both.
std::vector<Route> affectedRoutes(const RpkiState& prev, const RpkiState& cur,
                                  const std::vector<Asn>& touched) {
    std::vector<Route> out;
    for (const RpkiState* state : {&prev, &cur}) {
        for (const RoaTuple& t : state->tuples()) {
            if (std::binary_search(touched.begin(), touched.end(), t.asn)) {
                out.push_back(t.announcedRoute());
            }
        }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/// The length-`len` ancestor of `p` in the prefix tree.
IpPrefix ancestor(const IpPrefix& p, int len) {
    const int shift = familyBits(p.family) - len;
    return IpPrefix{p.family, (p.firstAddress() >> shift) << shift, static_cast<std::uint8_t>(len)};
}

/// Tuples of the (sorted) `tuples` covering `query` under an AS other
/// than `exclude`: a binary search for each of the query's <= W+1
/// ancestor prefixes, O(W log n) instead of a linear scan. The ancestors
/// ascend in prefix order, so the matches come out in state order (what
/// the historical quadratic scan produced).
std::vector<RoaTuple> coveringTuples(const std::vector<RoaTuple>& tuples, const IpPrefix& query,
                                     Asn exclude) {
    std::vector<RoaTuple> out;
    for (int len = 0; len <= query.length; ++len) {
        const IpPrefix up = ancestor(query, len);
        auto it = std::lower_bound(
            tuples.begin(), tuples.end(), up,
            [](const RoaTuple& t, const IpPrefix& p) { return t.prefix < p; });
        for (; it != tuples.end() && it->prefix == up; ++it) {
            if (it->asn != exclude) out.push_back(*it);
        }
    }
    return out;
}

std::vector<CompetingRoa> competingRoas(const std::vector<RoaTuple>& prevTuples,
                                        const std::vector<RoaTuple>& added,
                                        rc::parallel::Pool& pool) {
    // Fan out per added tuple; reassemble in added (state) order so the
    // output is byte-identical to the sequential path.
    const std::vector<std::vector<CompetingRoa>> perAdded =
        pool.parallelMap<std::vector<CompetingRoa>>(added.size(), [&](std::size_t i) {
            std::vector<CompetingRoa> hits;
            for (const RoaTuple& existing :
                 coveringTuples(prevTuples, added[i].prefix, added[i].asn)) {
                hits.push_back({added[i], existing});
            }
            return hits;
        });

    std::vector<CompetingRoa> out;
    for (const auto& hits : perAdded) out.insert(out.end(), hits.begin(), hits.end());
    return out;
}

}  // namespace

std::vector<CompetingRoa> findCompetingRoas(const RpkiState& prev, const RpkiState& cur,
                                            rc::parallel::Pool& pool) {
    return competingRoas(prev.tuples(), cur.minus(prev), pool);
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

    const TupleDelta delta = tupleDelta(prev.state(), cur.state());
    const TriangleSet& knownPrev = prev.knownTriangles();
    const TriangleSet& knownCur = cur.knownTriangles();
    const std::uint64_t newlyKnown = knownCur.subtract(knownPrev).prefixCount();
    const TriangleSet6& known6Prev = prev.knownTriangles6();
    const TriangleSet6& known6Cur = cur.knownTriangles6();

    // Set operations run only for touched ASes. Every other AS keeps its
    // valid triangles, so it has no valid->* or unknown->valid pairs; and
    // those triangles lie inside knownPrev, which the newly known space
    // excludes, so all newly known space is invalid for it.
    struct AsnPartial {
        AsDowngrades row;
        std::uint64_t unknownToValidPairs = 0;
    };
    const std::vector<Asn> touched = touchedAsns(delta);
    const std::vector<AsnPartial> partials =
        pool.parallelMap<AsnPartial>(touched.size(), [&](std::size_t k) {
            const Asn asn = touched[k];
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

            // unknown -> invalid for this AS: newly known space not valid
            // for it now. validCur lies inside knownCur, so the newly known
            // part of it is validCur \ knownPrev.
            row.unknownToInvalidPairs = newlyKnown - validCur.subtract(knownPrev).prefixCount();
            return part;
        });

    // Tally in ASN order over both AS universes, so the report is
    // byte-identical to the sequential path at every thread count.
    std::size_t nextTouched = 0;
    for (const Asn asn : trackedAsns(prev, cur)) {
        AsnPartial untouched;
        const AsnPartial* part = &untouched;
        if (nextTouched < touched.size() && touched[nextTouched] == asn) {
            part = &partials[nextTouched++];
        } else {
            untouched.row.asn = asn;
            untouched.row.unknownToInvalidPairs = newlyKnown;
        }
        report.unknownToValidPairs += part->unknownToValidPairs;
        report.validToInvalidPairs += part->row.validToInvalidPairs;
        report.validToUnknownPairs += part->row.validToUnknownPairs;
        report.unknownToInvalidPairs += part->row.unknownToInvalidPairs;
        if (part->row.validToInvalidPairs > 0 || part->row.validToUnknownPairs > 0 ||
            part->row.unknownToInvalidPairs > 0) {
            report.perAs.push_back(part->row);
        }
    }

    // Competing ROAs (paper §6): each tuple that appeared, checked against
    // the previous state's tuples covering its prefix under another AS.
    report.competingRoas = competingRoas(prev.state().tuples(), delta.announced, pool);

    // Tuple-level transitions: the announced route of every tuple of
    // either state, evaluated under both indexes wherever its
    // classification can have changed.
    const std::vector<Route> routes = affectedRoutes(prev.state(), cur.state(), touched);
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
    // Work counters: byte-stable across runs and thread counts, so they
    // can gate churn-proportional cost where a timing could not.
    RC_OBS_COUNT(obs::Registry::global().counter(
                     "rc_detector_ases_diffed_total",
                     "ASes whose valid triangles a diff ran set operations on"),
                 touched.size());
    RC_OBS_COUNT(obs::Registry::global().counter(
                     "rc_detector_routes_classified_total",
                     "Routes a diff classified under both states"),
                 routes.size());
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
