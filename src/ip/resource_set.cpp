#include "ip/resource_set.hpp"

#include <cstdio>

#include "util/errors.hpp"

namespace rpkic {

ResourceSet ResourceSet::inherit() {
    ResourceSet r;
    r.inherit_ = true;
    return r;
}

ResourceSet ResourceSet::ofPrefixes(std::initializer_list<IpPrefix> prefixes) {
    ResourceSet r;
    for (const auto& p : prefixes) r.addPrefix(p);
    return r;
}

ResourceSet ResourceSet::ofPrefixes(const std::vector<IpPrefix>& prefixes) {
    ResourceSet r;
    for (const auto& p : prefixes) r.addPrefix(p);
    return r;
}

bool ResourceSet::empty() const {
    return !inherit_ && v4_.empty() && v6_.empty() && asns_.empty();
}

void ResourceSet::addPrefix(const IpPrefix& p) {
    if (inherit_) throw UsageError("cannot add resources to an inherit set");
    if (p.family == IpFamily::v4) {
        v4_.insert(p.firstAddress().toU64(), p.lastAddress().toU64());
    } else {
        v6_.insert(p.firstAddress(), p.lastAddress());
    }
}

void ResourceSet::addRangeV4(std::uint64_t lo, std::uint64_t hi) {
    if (inherit_) throw UsageError("cannot add resources to an inherit set");
    v4_.insert(lo, hi);
}

void ResourceSet::addRangeV6(const U128& lo, const U128& hi) {
    if (inherit_) throw UsageError("cannot add resources to an inherit set");
    v6_.insert(lo, hi);
}

void ResourceSet::addAsn(Asn asn) {
    addAsnRange(asn, asn);
}

void ResourceSet::addAsnRange(Asn lo, Asn hi) {
    if (inherit_) throw UsageError("cannot add resources to an inherit set");
    asns_.insert(lo, hi);
}

bool ResourceSet::containsPrefix(const IpPrefix& p) const {
    if (inherit_) throw UsageError("inherit set has no resources of its own");
    if (p.family == IpFamily::v4) {
        return v4_.containsRange(p.firstAddress().toU64(), p.lastAddress().toU64());
    }
    return v6_.containsRange(p.firstAddress(), p.lastAddress());
}

namespace {
template <typename T>
bool setSubset(const IntervalSet<T>& a, const IntervalSet<T>& b) {
    return a.subtract(b).empty();
}
}  // namespace

bool ResourceSet::subsetOf(const ResourceSet& parent) const {
    if (inherit_) return true;
    if (parent.inherit_) return false;
    return setSubset(v4_, parent.v4_) && setSubset(v6_, parent.v6_) &&
           setSubset(asns_, parent.asns_);
}

bool ResourceSet::overlaps(const ResourceSet& other) const {
    if (inherit_ || other.inherit_) {
        throw UsageError("overlap is undefined for inherit sets; resolve them first");
    }
    return !v4_.intersect(other.v4_).empty() || !v6_.intersect(other.v6_).empty() ||
           !asns_.intersect(other.asns_).empty();
}

ResourceSet ResourceSet::unionWith(const ResourceSet& other) const {
    if (inherit_ || other.inherit_) throw UsageError("cannot union inherit sets");
    ResourceSet r;
    r.v4_ = v4_.unionWith(other.v4_);
    r.v6_ = v6_.unionWith(other.v6_);
    r.asns_ = asns_.unionWith(other.asns_);
    return r;
}

ResourceSet ResourceSet::intersect(const ResourceSet& other) const {
    if (inherit_ || other.inherit_) throw UsageError("cannot intersect inherit sets");
    ResourceSet r;
    r.v4_ = v4_.intersect(other.v4_);
    r.v6_ = v6_.intersect(other.v6_);
    r.asns_ = asns_.intersect(other.asns_);
    return r;
}

ResourceSet ResourceSet::subtract(const ResourceSet& other) const {
    if (inherit_ || other.inherit_) throw UsageError("cannot subtract inherit sets");
    ResourceSet r;
    r.v4_ = v4_.subtract(other.v4_);
    r.v6_ = v6_.subtract(other.v6_);
    r.asns_ = asns_.subtract(other.asns_);
    return r;
}

std::string ResourceSet::str() const {
    if (inherit_) return "{inherit}";
    std::string out = "{";
    bool first = true;
    auto append = [&out, &first](const std::string& piece) {
        if (!first) out += ", ";
        out += piece;
        first = false;
    };
    for (const auto& iv : v4_.intervals()) {
        const auto lo = static_cast<std::uint32_t>(iv.lo);
        const auto hi = static_cast<std::uint32_t>(iv.hi);
        char buf[48];
        std::snprintf(buf, sizeof buf, "%u.%u.%u.%u-%u.%u.%u.%u", (lo >> 24) & 0xff,
                      (lo >> 16) & 0xff, (lo >> 8) & 0xff, lo & 0xff, (hi >> 24) & 0xff,
                      (hi >> 16) & 0xff, (hi >> 8) & 0xff, hi & 0xff);
        append(buf);
    }
    for (const auto& iv : v6_.intervals()) {
        append("v6:" + iv.lo.hex() + "-" + iv.hi.hex());
    }
    for (const auto& iv : asns_.intervals()) {
        if (iv.lo == iv.hi) append("AS" + std::to_string(iv.lo));
        else append("AS" + std::to_string(iv.lo) + "-AS" + std::to_string(iv.hi));
    }
    out += "}";
    return out;
}

const ResourceSet& effectiveResources(const ResourceSet& own,
                                      const ResourceSet& parentEffective) {
    return own.isInherit() ? parentEffective : own;
}

}  // namespace rpkic
