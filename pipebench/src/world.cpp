#include "world.hpp"

#include <algorithm>
#include <set>

#include "model/census.hpp"
#include "model/consent_census.hpp"

namespace pipebench {

namespace {

constexpr std::string_view kRoaSuffix = ".roa";

// vrp-heavy shape: 48 leaves x 21 ROAs x 20 prefixes ~= 20k tuples, the
// paper's production prefix-origin pair count.
constexpr int kHeavyLeaves = 48;
constexpr int kHeavyRoasPerLeaf = 21;
constexpr std::size_t kHeavyPrefixesPerRoa = 20;
// Churn: 2 leaves re-issue 5 ROAs each = 200 of ~20k tuples replaced.
constexpr std::size_t kHeavyAuthoritiesPerRound = 2;
constexpr std::size_t kHeavyRoasPerOp = 5;

}  // namespace

std::unique_ptr<World> World::census(std::uint64_t seed, double scale, int opsPerRound) {
    model::CensusConfig config;
    config.seed = seed;
    config.scale = scale;
    model::ConsentCensus c = model::buildConsentCensus(config);
    std::unique_ptr<World> w(new World(seed ^ 0xc3a5c85c97cb3127ull));
    w->kind_ = Kind::Census;
    w->opsPerRound_ = opsPerRound;
    w->directory_ = std::move(c.directory);
    w->repo_ = std::move(c.repository);
    w->trustAnchors_ = std::move(c.trustAnchors);
    w->readPublishedRoas();
    return w;
}

std::unique_ptr<World> World::vrpHeavy(std::uint64_t seed) {
    std::unique_ptr<World> w(new World(seed ^ 0x9ae16a3b2f90404full));
    w->kind_ = Kind::Heavy;
    consent::AuthorityOptions options;
    options.ts = 5;
    options.manifestLifetime = 1u << 20;
    w->directory_ = std::make_unique<consent::AuthorityDirectory>(seed, options);
    auto& dir = *w->directory_;

    ResourceSet pool;
    pool.addRangeV4(0x0A000000u, 0x0AFFFFFFu);
    pool.addRangeV6(U128(0x20010db800000000ull, 0), U128(0x20010db8ffffffffull, ~0ull));
    // The trust anchor signs one RC and one manifest per leaf.
    consent::Authority& ta = dir.createTrustAnchor("vh-ta", pool, w->repo_, 0, 7);
    w->trustAnchors_.push_back(ta.cert());

    Asn nextAsn = 100000;
    for (int i = 0; i < kHeavyLeaves; ++i) {
        const IpPrefix v4 = IpPrefix::v4(0x0A000000u + (static_cast<std::uint32_t>(i) << 18), 14);
        const IpPrefix v6 =
            IpPrefix::v6(U128(0x20010db800000000ull | (static_cast<std::uint64_t>(i) << 16), 0), 48);
        // Height 7: 128 signatures, ~400 churn rounds before the world
        // must be rebuilt.
        consent::Authority& leaf = dir.createChild(ta, "vh-org" + std::to_string(i),
                                                   ResourceSet::ofPrefixes({v4, v6}), w->repo_,
                                                   0, 7);
        std::vector<consent::Authority::RoaSpec> specs;
        for (int r = 0; r < kHeavyRoasPerLeaf; ++r) {
            specs.push_back({"r" + std::to_string(r), nextAsn++,
                             w->heavyPrefixes(leaf, kHeavyPrefixesPerRoa)});
        }
        leaf.issueRoas(std::move(specs), w->repo_, 0);
    }
    w->readPublishedRoas();
    return w;
}

void World::readPublishedRoas() {
    // The initial ground truth is what the builders published: every ROA
    // logged in each authority's current manifest, decoded straight from
    // the repository. From here on the world tracks its own changes.
    for (const std::string& name : directory_->names()) {
        consent::Authority& a = directory_->get(name);
        if (a.parent() != nullptr) authorities_.push_back(&a);
        if (!a.hasPublished()) continue;
        for (const ManifestEntry& e : a.currentManifest().entries) {
            if (!e.filename.ends_with(kRoaSuffix)) continue;
            const Bytes* bytes = repo_.file(a.pubPointUri(), e.filename);
            if (bytes == nullptr) continue;
            const Roa roa = Roa::decode(ByteView(bytes->data(), bytes->size()));
            const std::string label = e.filename.substr(0, e.filename.size() - kRoaSuffix.size());
            roas_[{name, label}] = {label, roa.asn, roa.prefixes};
        }
    }
    rebuildTruth();
}

void World::rebuildTruth() {
    std::vector<RoaTuple> tuples;
    for (const auto& [key, spec] : roas_) {
        for (const RoaPrefix& p : spec.prefixes) tuples.push_back({p.prefix, p.maxLength, spec.asn});
    }
    truth_ = std::make_shared<const RpkiState>(std::move(tuples));
}

std::vector<RoaPrefix> World::censusPrefix(const consent::Authority& a) {
    const auto& iv = a.cert().resources.v4().intervals().front();
    const std::uint64_t blocks = (iv.hi - iv.lo + 1) >> 8;
    const auto addr = static_cast<std::uint32_t>(iv.lo + (rng_.nextBelow(blocks) << 8));
    return {{IpPrefix::v4(addr, 24), 24}};
}

std::vector<RoaPrefix> World::heavyPrefixes(const consent::Authority& a, std::size_t count) {
    const ResourceSet& res = a.cert().resources;
    const auto& v4 = res.v4().intervals().front();
    const auto& v6 = res.v6().intervals().front();
    std::set<RoaPrefix> out;
    while (out.size() < count) {
        if (rng_.nextBelow(4) != 0) {
            const int len = static_cast<int>(rng_.nextInRange(16, 24));
            const std::uint64_t slots = (v4.hi - v4.lo + 1) >> (32 - len);
            const auto addr =
                static_cast<std::uint32_t>(v4.lo + (rng_.nextBelow(slots) << (32 - len)));
            const auto maxLen = static_cast<std::uint8_t>(len + rng_.nextBelow(5));
            out.insert({IpPrefix::v4(addr, len), maxLen});
        } else {
            const int len = static_cast<int>(rng_.nextInRange(48, 56));
            const std::uint64_t sub = rng_.nextBelow(1ull << (len - 48)) << (64 - len);
            const auto maxLen = static_cast<std::uint8_t>(len + rng_.nextBelow(9));
            out.insert({IpPrefix::v6(U128(v6.lo.hi | sub, 0), len), maxLen});
        }
    }
    return {out.begin(), out.end()};
}

std::vector<consent::Authority*> World::pickAuthorities(std::size_t count,
                                                       std::uint64_t minSignatures) {
    std::vector<consent::Authority*> able;
    for (consent::Authority* a : authorities_) {
        if (a->signaturesRemaining() >= minSignatures) able.push_back(a);
    }
    if (able.size() < count) return {};
    rng_.shuffle(able);
    able.resize(count);
    return able;
}

bool World::canChurn() const {
    const std::size_t need = kind_ == Kind::Census ? static_cast<std::size_t>(opsPerRound_)
                                                   : kHeavyAuthoritiesPerRound;
    const std::uint64_t minSignatures = kind_ == Kind::Census ? 2 : kHeavyRoasPerOp + 1;
    std::size_t able = 0;
    for (const consent::Authority* a : authorities_) {
        if (a->signaturesRemaining() >= minSignatures) ++able;
    }
    return able >= need;
}

std::vector<AuthorityOp> World::planRound() {
    std::vector<AuthorityOp> ops = kind_ == Kind::Census ? planCensus() : planHeavy();
    rebuildTruth();
    return ops;
}

std::vector<AuthorityOp> World::planCensus() {
    std::vector<AuthorityOp> ops;
    for (consent::Authority* a : pickAuthorities(static_cast<std::size_t>(opsPerRound_), 2)) {
        std::vector<std::string> labels;
        for (auto it = roas_.lower_bound({a->name(), ""});
             it != roas_.end() && it->first.first == a->name(); ++it) {
            labels.push_back(it->first.second);
        }
        AuthorityOp op;
        op.authority = a;
        const std::uint64_t pick = rng_.nextBelow(100);
        if (pick < 30) {
            op.kind = AuthorityOp::Kind::Refresh;
        } else if (pick < 50 && !labels.empty()) {
            op.kind = AuthorityOp::Kind::Delete;
            op.deleteLabel = labels[rng_.nextBelow(labels.size())];
            roas_.erase({a->name(), op.deleteLabel});
        } else {
            op.kind = AuthorityOp::Kind::Put;
            consent::Authority::RoaSpec spec;
            if (pick < 75 || labels.empty()) {
                ++nextLabel_;
                spec = {"pb" + std::to_string(nextLabel_), static_cast<Asn>(200000 + nextLabel_),
                        censusPrefix(*a)};
            } else {
                spec = roas_.at({a->name(), labels[rng_.nextBelow(labels.size())]});
                spec.prefixes = censusPrefix(*a);
            }
            roas_[{a->name(), spec.label}] = spec;
            op.puts.push_back(std::move(spec));
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

std::vector<AuthorityOp> World::planHeavy() {
    std::vector<AuthorityOp> ops;
    for (consent::Authority* a : pickAuthorities(kHeavyAuthoritiesPerRound, kHeavyRoasPerOp + 1)) {
        AuthorityOp op;
        op.kind = AuthorityOp::Kind::Put;
        op.authority = a;
        std::vector<int> labels(kHeavyRoasPerLeaf);
        for (int r = 0; r < kHeavyRoasPerLeaf; ++r) labels[static_cast<std::size_t>(r)] = r;
        rng_.shuffle(labels);
        for (std::size_t k = 0; k < kHeavyRoasPerOp; ++k) {
            consent::Authority::RoaSpec& spec =
                roas_.at({a->name(), "r" + std::to_string(labels[k])});
            spec.prefixes = heavyPrefixes(*a, kHeavyPrefixesPerRoa);
            op.puts.push_back(spec);
        }
        ops.push_back(std::move(op));
    }
    return ops;
}

PublishStats World::apply(const std::vector<AuthorityOp>& ops, Time now) {
    PublishStats stats;
    for (const AuthorityOp& op : ops) {
        consent::Authority& a = *op.authority;
        const std::uint64_t before = a.signaturesRemaining();
        switch (op.kind) {
            case AuthorityOp::Kind::Refresh:
                a.refreshManifest(repo_, now);
                break;
            case AuthorityOp::Kind::Delete:
                a.deleteRoa(op.deleteLabel, repo_, now);
                break;
            case AuthorityOp::Kind::Put:
                a.issueRoas(op.puts, repo_, now);
                break;
        }
        ++stats.manifestUpdates;
        stats.signatures += before - a.signaturesRemaining();
    }
    return stats;
}

}  // namespace pipebench
