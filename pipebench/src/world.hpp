// Seeded publishing worlds for the pipeline benchmark.
//
// A World owns an authority directory, the repository its authorities
// publish into, and the benchmark's own ground truth: the ROAs the
// generator has published, kept by the benchmark rather than read back
// through any relying-party code. Each round the world plans a few
// authority operations (issue, delete, re-issue a ROA, refresh a
// manifest), updates the ground truth from the plan, and then applies the
// plan through the consent::Authority API — the first stage of a round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consent/authority.hpp"
#include "detector/state.hpp"
#include "rpki/repository.hpp"
#include "util/rng.hpp"

namespace pipebench {

using namespace rpkic;

/// One manifest update of one authority.
struct AuthorityOp {
    enum class Kind { Refresh, Delete, Put };
    Kind kind = Kind::Refresh;
    consent::Authority* authority = nullptr;
    std::string deleteLabel;                       ///< Kind::Delete
    std::vector<consent::Authority::RoaSpec> puts;  ///< Kind::Put (new or re-issued ROAs)

    /// Signatures the op consumes from the authority's key.
    std::uint64_t signatures() const { return kind == Kind::Put ? puts.size() + 1 : 1; }
};

/// What the consent stage did in one round.
struct PublishStats {
    std::uint64_t manifestUpdates = 0;
    std::uint64_t signatures = 0;  ///< signaturesRemaining() deltas
};

class World {
public:
    /// The consent census (model::buildConsentCensus) at `scale`; churn
    /// touches `opsPerRound` leaf authorities per round.
    static std::unique_ptr<World> census(std::uint64_t seed, double scale, int opsPerRound);
    /// A few dozen authorities carrying ~20k tuples in multi-prefix ROAs;
    /// churn re-issues ROAs so ~1% of the tuples change per round.
    static std::unique_ptr<World> vrpHeavy(std::uint64_t seed);

    Repository& repository() { return repo_; }
    const std::vector<ResourceCert>& trustAnchors() const { return trustAnchors_; }

    /// The tuples of every ROA the generator has published so far.
    std::shared_ptr<const RpkiState> truth() const { return truth_; }

    /// False once too few authorities have signatures left to keep
    /// churning (the run then rebuilds its world).
    bool canChurn() const;

    /// Plans the next round's operations and moves the ground truth to
    /// the state they publish. Untimed.
    std::vector<AuthorityOp> planRound();

    /// Applies a plan through the Authority API at simulated time `now`.
    PublishStats apply(const std::vector<AuthorityOp>& ops, Time now);

private:
    using RoaKey = std::pair<std::string, std::string>;  // (authority, label)

    World(std::uint64_t seed) : rng_(seed) {}
    void readPublishedRoas();
    void rebuildTruth();
    std::vector<RoaPrefix> censusPrefix(const consent::Authority& a);
    std::vector<RoaPrefix> heavyPrefixes(const consent::Authority& a, std::size_t count);
    std::vector<AuthorityOp> planCensus();
    std::vector<AuthorityOp> planHeavy();
    std::vector<consent::Authority*> pickAuthorities(std::size_t count,
                                                     std::uint64_t minSignatures);

    enum class Kind { Census, Heavy };
    Kind kind_ = Kind::Census;
    int opsPerRound_ = 4;
    std::unique_ptr<consent::AuthorityDirectory> directory_;
    Repository repo_;
    std::vector<ResourceCert> trustAnchors_;
    std::vector<consent::Authority*> authorities_;  ///< churnable (non-TA) authorities
    std::map<RoaKey, consent::Authority::RoaSpec> roas_;
    std::shared_ptr<const RpkiState> truth_;
    Rng rng_;
    std::uint64_t nextLabel_ = 0;
};

}  // namespace pipebench
