// The resource payload of an RPKI certificate: IP address space plus AS
// numbers, with RFC 3779 subset semantics and the "inherit" attribute
// (paper §5.3.1).
//
// Subset checks are *address-range based*, independent of prefix lengths:
// a child holding 10.0.0.0/9 and 10.128.0.0/9 is within a parent holding
// 10.0.0.0/8.
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "ip/interval_set.hpp"
#include "ip/prefix.hpp"

namespace rpkic {

class ResourceSet {
public:
    ResourceSet() = default;

    /// The "inherit" resource set: the holder has exactly its issuer's
    /// resources (paper §5.3.1, RFC 6487 §2).
    static ResourceSet inherit();

    static ResourceSet ofPrefixes(std::initializer_list<IpPrefix> prefixes);
    static ResourceSet ofPrefixes(const std::vector<IpPrefix>& prefixes);

    bool isInherit() const { return inherit_; }
    bool empty() const;

    void addPrefix(const IpPrefix& p);
    void addAsn(Asn asn);
    void addAsnRange(Asn lo, Asn hi);

    /// Raw address ranges, used by the decoder and by generators that work
    /// with ranges rather than prefixes.
    void addRangeV4(std::uint64_t lo, std::uint64_t hi);
    void addRangeV6(const U128& lo, const U128& hi);

    bool containsPrefix(const IpPrefix& p) const;

    /// RFC 3779 subset check. An inherit set is a subset of anything (its
    /// effective resources are defined by the parent); nothing but another
    /// inherit set is a subset of an inherit set.
    bool subsetOf(const ResourceSet& parent) const;

    bool overlaps(const ResourceSet& other) const;

    ResourceSet unionWith(const ResourceSet& other) const;
    ResourceSet intersect(const ResourceSet& other) const;
    /// Resources in *this that are not in `other`.
    ResourceSet subtract(const ResourceSet& other) const;

    const IntervalSet<std::uint64_t>& v4() const { return v4_; }
    const IntervalSet<U128>& v6() const { return v6_; }
    const IntervalSet<std::uint64_t>& asns() const { return asns_; }

    /// Total IPv4 addresses held (for overhead statistics).
    std::uint64_t v4AddressCount() const { return v4_.countU64(); }

    friend bool operator==(const ResourceSet&, const ResourceSet&) = default;

    std::string str() const;

private:
    bool inherit_ = false;
    IntervalSet<std::uint64_t> v4_;   // IPv4 addresses as [0, 2^32) integers
    IntervalSet<U128> v6_;            // IPv6 addresses
    IntervalSet<std::uint64_t> asns_; // AS numbers
};

/// Resolves the effective resources of a certificate holding `own` under a
/// parent whose effective resources are `parentEffective`: inherit means
/// "same as parent".
const ResourceSet& effectiveResources(const ResourceSet& own,
                                      const ResourceSet& parentEffective);

}  // namespace rpkic
