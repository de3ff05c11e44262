// The RPKI object model: resource certificates (RCs), route origin
// authorizations (ROAs), manifests, CRLs, and the two object kinds this
// paper adds — .dead consent objects (§5.3.1) and .roll key-rollover
// objects (Appendix A) — plus the unsigned hints file (§5.3.2).
//
// Every object has:
//   encodeBody()  — canonical bytes of everything except the signature;
//   encode()      — body plus signature (the published file contents);
//   bodyHash()    — SHA-256 of encodeBody(); used for manifest hash chains
//                   ("hash of the contents excluding the signature");
//   decode()      — strict parse of encode() output.
// File identity inside manifests is sha256(full file bytes) (fileHash).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/xmss.hpp"
#include "ip/prefix.hpp"
#include "ip/resource_set.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace rpkic {

enum class ObjectType : std::uint8_t {
    ResourceCert = 1,
    Roa = 2,
    Manifest = 3,
    Crl = 4,
    Dead = 5,
    Roll = 6,
    Hints = 7,
};

/// Peeks at the type byte of an encoded object. Throws ParseError on empty
/// input or an unknown type.
ObjectType objectTypeOf(ByteView file);

/// Hash of a published file's full contents (what manifests log).
Digest fileHashOf(ByteView file);

// ---------------------------------------------------------------------------

/// A resource certificate: binds a public key to a set of Internet number
/// resources, names the holder's publication point, and is signed by the
/// issuing (parent) RC. Trust anchors are self-signed with empty parentUri.
struct ResourceCert {
    std::string subjectName;   ///< human-readable holder ("Sprint", "RIPE", ...)
    std::string uri;           ///< full URI of this file (in the parent's pub point)
    std::uint64_t serial = 0;  ///< strictly increasing per issuer (§5.3.2 replay rule)
    PublicKey subjectKey;
    std::string parentUri;     ///< URI of the issuer's RC; empty for a trust anchor
    std::string pubPointUri;   ///< the subject's publication point (child pointer)
    ResourceSet resources;     ///< may be inherit()
    Time notBefore = 0;        ///< used only by the vanilla validator
    Time notAfter = 0;         ///< ditto; paper §5.3.2 removes expiry for RCs
    Bytes signature;

    bool isTrustAnchor() const { return parentUri.empty(); }

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static ResourceCert decode(ByteView file);

    /// True if both certs have identical fields other than signature,
    /// serial and subjectKey — the paper's notion of a "renewal"-style
    /// overwrite comparison helper.
    bool sameFieldsExceptResources(const ResourceCert& o) const;
};

// ---------------------------------------------------------------------------

struct RoaPrefix {
    IpPrefix prefix;
    std::uint8_t maxLength = 0;  ///< paper §2.1; must be >= prefix.length

    auto operator<=>(const RoaPrefix&) const = default;
};

/// A route origin authorization: one origin AS, many (prefix, maxLength)
/// pairs (matching production practice, Table 2 discussion).
///
/// The optional EE key implements the paper's footnote 8: "a ROA could
/// instead consent via its EE cert, instead of asking for its own RC" —
/// a ROA carrying an EE key is entitled to consent, so whacking it
/// without a matching .dead becomes an alarmable event.
struct Roa {
    std::string uri;
    std::uint64_t serial = 0;
    std::string parentUri;  ///< URI of the issuing RC
    Asn asn = 0;
    std::vector<RoaPrefix> prefixes;
    Time notBefore = 0;
    Time notAfter = 0;
    bool hasEeKey = false;  ///< entitled to consent via its EE key
    PublicKey eeKey;
    Bytes signature;

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static Roa decode(ByteView file);
};

// ---------------------------------------------------------------------------

enum class ManifestTag : std::uint8_t {
    Normal = 0,
    PreRollover = 1,   ///< first (empty) manifest of the rollover target B'
    PostRollover = 2,  ///< final manifest of B announcing the move to B'
};

struct ManifestEntry {
    std::string filename;  ///< name within the publication point
    Digest fileHash;       ///< sha256 of the full file contents
    std::uint64_t firstAppeared = 0;  ///< manifest number where this version first appeared

    auto operator<=>(const ManifestEntry&) const = default;
};

/// The central object of the redesigned RPKI (§5.3.2): a normative,
/// hash-chained, signed listing of everything its issuer has issued.
struct Manifest {
    std::string issuerRcUri;
    std::string pubPointUri;
    std::uint64_t number = 0;  ///< sequential; successor has number+1
    Time thisUpdate = 0;
    Time nextUpdate = 0;  ///< expiry; expired manifests are "stale", not invalid
    std::vector<ManifestEntry> entries;  ///< sorted by filename
    Digest prevManifestHash;    ///< bodyHash of predecessor (horizontal chain)
    Digest parentManifestHash;  ///< bodyHash of parent's manifest logging our RC (vertical chain)
    std::uint64_t highestChildSerial = 0;  ///< replay prevention (§5.3.2)
    ManifestTag tag = ManifestTag::Normal;
    // PostRollover payload (Appendix A): where the key moved.
    std::string rolloverTargetUri;      ///< URI of the successor RC B'
    Digest rolloverTargetRcHash;        ///< fileHash of B'
    Digest rolloverParentManifestHash;  ///< bodyHash of parent's manifest logging B'
    Bytes signature;

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static Manifest decode(ByteView file);

    const ManifestEntry* findEntry(const std::string& filename) const;
    bool logs(const std::string& filename) const { return findEntry(filename) != nullptr; }
};

// ---------------------------------------------------------------------------

/// Certificate revocation list — used only by the vanilla (current-RPKI)
/// validator; the redesign retires CRLs (§5.3.2).
struct Crl {
    std::string issuerRcUri;
    std::uint64_t number = 0;
    Time thisUpdate = 0;
    Time nextUpdate = 0;
    std::vector<std::uint64_t> revokedSerials;
    Bytes signature;

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static Crl decode(ByteView file);

    bool revokes(std::uint64_t serial) const;
};

// ---------------------------------------------------------------------------

/// Consent to revocation or narrowing (§5.3.1). Signed by the RC whose
/// resources are affected; commits to the signer's manifest and RC, and to
/// the .dead objects of all of the signer's affected children.
struct DeadObject {
    std::string rcUri;          ///< URI of the consenting RC
    std::uint64_t rcSerial = 0;
    Digest rcHash;              ///< fileHash of the consenting RC
    Digest signerManifestHash;  ///< bodyHash of the manifest the signer issued when consenting
    std::vector<Digest> childDeadHashes;  ///< fileHashes of children's .dead objects
    bool fullRevocation = true;
    ResourceSet removedResources;  ///< meaningful when !fullRevocation
    Bytes signature;               ///< by the consenting RC's key

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static DeadObject decode(ByteView file);
    bool operator==(const DeadObject&) const = default;
};

/// Consent to deletion after a completed key rollover (Appendix A).
struct RollObject {
    std::string rcUri;  ///< the rolled-over RC B
    std::uint64_t rcSerial = 0;
    Digest postRolloverManifestHash;  ///< bodyHash of B's post-rollover manifest
    Bytes signature;                  ///< by B's (old) key

    Bytes encodeBody() const;
    Bytes encode() const;
    Digest bodyHash() const;
    static RollObject decode(ByteView file);
};

// ---------------------------------------------------------------------------

struct HintEntry {
    std::string originalName;  ///< filename the object had while logged
    std::string preservedAs;   ///< filename it is preserved under now
    Digest fileHash;
    std::uint64_t firstManifest = 0;  ///< first manifest number logging this version
    std::uint64_t lastManifest = 0;   ///< last manifest number logging this version

    auto operator<=>(const HintEntry&) const = default;
};

/// The unsigned "hints" file (§5.3.2): tells relying parties where
/// overwritten/deleted object versions are preserved so that every
/// intermediate publication-point state can be reconstructed.
struct HintsFile {
    std::vector<HintEntry> entries;

    Bytes encode() const;
    static HintsFile decode(ByteView file);
};

/// Conventional filename of the current manifest within a publication point.
inline constexpr const char* kManifestName = "manifest.mft";
/// Conventional filename of the hints file.
inline constexpr const char* kHintsName = "hints";
/// Conventional filename of the CRL (vanilla mode).
inline constexpr const char* kCrlName = "crl.crl";

/// Name under which an old manifest is preserved.
std::string preservedManifestName(std::uint64_t number);
/// Name under which an overwritten/deleted object version is preserved.
std::string preservedObjectName(const std::string& originalName, std::uint64_t lastManifest);

}  // namespace rpkic
