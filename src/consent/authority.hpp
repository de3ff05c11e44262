// Authority-side procedures of the redesigned RPKI (paper §5.3).
//
// An Authority owns one publication point and maintains it under the new
// rules:
//  * normative manifests — anything not logged in the current manifest
//    does not exist; only manifests expire (§5.3.2);
//  * hash chaining — every manifest commits to its predecessor (horizontal
//    chain) and to the parent manifest logging its issuer's RC (vertical
//    chain);
//  * sequential manifest numbers, strictly increasing child serials;
//  * first-appearance numbers per logged file, plus a hints file and
//    preserved object/manifest versions so relying parties can reconstruct
//    every intermediate state for time ts;
//  * consent — revoking or narrowing a child RC requires recursively
//    collected .dead objects (§5.3.1);
//  * key rollover via pre-/post-rollover manifests and .roll objects
//    (Appendix A).
//
// Honest operations throw ProtocolError when asked to violate the rules;
// the misbehaviour hooks at the bottom exist so the simulator can play the
// adversary of §3.2 and Counterexamples 1-2.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/xmss.hpp"
#include "rpki/objects.hpp"
#include "rpki/repository.hpp"

namespace rpkic::consent {

struct AuthorityOptions {
    Duration ts = 3;       ///< relying-party sync window (paper §5.3 "Timing")
    int signerHeight = 7;  ///< 2^h signatures per key; exhaustion forces rollover
    Duration manifestLifetime = 2;  ///< manifests must be refreshed this often
    /// Paper footnote 8 extension: issue every ROA with an EE key so the
    /// ROA itself is entitled to consent. With this on, deleting a ROA
    /// requires (and automatically publishes) an EE-signed .dead — and a
    /// ROA whacked without one becomes an alarmable event.
    bool roaConsentViaEe = false;
};

class Authority;

/// Owns every authority of one RPKI instance and wires parent/child links;
/// provides the multi-party choreographies (consent collection, rollover).
class AuthorityDirectory {
public:
    explicit AuthorityDirectory(std::uint64_t seed, AuthorityOptions options = {});

    /// Creates a root authority (trust anchor) and publishes its first
    /// manifest into `repo`. `signerHeight` overrides the default key
    /// capacity (0 = default).
    Authority& createTrustAnchor(const std::string& name, ResourceSet resources,
                                 Repository& repo, Time now, int signerHeight = 0);

    /// Creates `name` under `parent`: the child publishes its (empty) first
    /// manifest, then the parent publishes the child's RC — the paper's
    /// required order (§5.3.2 "One manifest per publication point").
    /// `signerHeight` overrides the default key capacity (0 = default).
    Authority& createChild(Authority& parent, const std::string& name, ResourceSet resources,
                           Repository& repo, Time now, int signerHeight = 0);

    Authority& get(const std::string& name);
    const Authority* find(const std::string& name) const;
    std::vector<std::string> names() const;

    /// Recursively collects .dead objects from `target` and all its valid
    /// descendants, consenting to full revocation (paper §5.3.1
    /// "Constructing a .dead"). Returns the .dead files bottom-up
    /// (descendants first, target last).
    std::vector<DeadObject> collectRevocationConsent(Authority& target);

    /// Consent for narrowing: .deads only from descendants whose resources
    /// overlap the removed space (and from the target itself).
    std::vector<DeadObject> collectNarrowingConsent(Authority& target,
                                                    const ResourceSet& removed);

    std::uint64_t nextSeed() { return seed_ += 0x9e3779b97f4a7c15ULL; }
    const AuthorityOptions& options() const { return options_; }

    /// Deep-copies `original` (publication state AND signing key) under the
    /// name "<name>#mirror" for mirror-world attack simulation.
    Authority& registerMirrorFork(const Authority& original);

private:
    AuthorityOptions options_;
    std::uint64_t seed_;
    std::map<std::string, std::unique_ptr<Authority>> authorities_;
};

class Authority {
public:
    Authority(AuthorityDirectory& dir, std::string name, AuthorityOptions options,
              std::uint64_t seed);

    // --- identity ---------------------------------------------------------
    const std::string& name() const { return name_; }
    const ResourceCert& cert() const { return cert_; }
    const std::string& pubPointUri() const { return pubPointUri_; }
    Authority* parent() const { return parent_; }
    const std::vector<Authority*>& children() const { return children_; }
    const Manifest& currentManifest() const;
    bool hasPublished() const { return hasManifest_; }
    bool isRevoked() const { return revoked_; }
    bool hasConsentedToDeath() const { return consented_; }

    // --- object issuance --------------------------------------------------
    /// Issues/refreshes nothing but the manifest (the periodic heartbeat
    /// that keeps it from going stale).
    void refreshManifest(Repository& repo, Time now);

    /// Issues a ROA named "<label>.roa". One manifest update.
    void issueRoa(const std::string& label, Asn asn, std::vector<RoaPrefix> prefixes,
                  Repository& repo, Time now);
    /// Issues many ROAs in ONE manifest update (bulk issuance).
    struct RoaSpec {
        std::string label;
        Asn asn;
        std::vector<RoaPrefix> prefixes;
    };
    void issueRoas(std::vector<RoaSpec> roas, Repository& repo, Time now);
    /// Deletes a ROA. Without the EE-consent extension, ROAs are not
    /// entitled to consent (paper footnote 8) and the deletion is merely
    /// visible in the manifest chain; with roaConsentViaEe the EE-signed
    /// .dead is produced and published alongside the deletion.
    void deleteRoa(const std::string& label, Repository& repo, Time now);
    /// Deletes an EE-consenting ROA WITHOUT its .dead (adversarial).
    void unsafeDeleteRoaWithoutConsent(const std::string& label, Repository& repo, Time now);
    /// Removes an arbitrary file from the point, no ceremony (adversarial).
    void unsafeRemoveFile(const std::string& filename, Repository& repo, Time now);

    // --- consent (paper §5.3.1) -------------------------------------------
    /// Signs this authority's own .dead object. `childDeads` must contain
    /// the .dead files of every child that must consent (all valid
    /// children for full revocation; overlapping children for narrowing).
    /// After signing, the authority stops issuing (make-before-break).
    DeadObject signDead(bool fullRevocation, const ResourceSet& removedResources,
                        const std::vector<DeadObject>& childDeads);

    /// Revokes child RC `childName` with the recursively collected consent
    /// `deads` (target's own .dead last). Verifies completeness, then
    /// simultaneously deletes the RC, publishes the .deads, and logs it
    /// all in one manifest update. Throws ProtocolError on missing consent.
    void revokeChild(const std::string& childName, const std::vector<DeadObject>& deads,
                     Repository& repo, Time now);

    /// Removes `removed` from the child's resources, with consent from the
    /// child and impacted descendants.
    void narrowChild(const std::string& childName, const ResourceSet& removed,
                     const std::vector<DeadObject>& deads, Repository& repo, Time now);

    /// Adds resources to a child RC. Needs no consent (§5.3.1: "No .dead
    /// objects are required when a modification has no impact").
    void broadenChild(const std::string& childName, const ResourceSet& added, Repository& repo,
                      Time now);

    // --- key rollover (Appendix A) -----------------------------------------
    /// Step 1 (parent side): issues successor RC B' with the child's new
    /// key, same resources and publication point, at a new URI. The child
    /// must have staged a new key via stageNewKey().
    void rolloverStep1IssueSuccessor(const std::string& childName, Repository& repo, Time now);
    /// Child side: generates the new key and the pre-rollover manifest.
    void stageNewKey(Repository& repo, Time now);
    /// Step 2 (child side, >= ts after step 1): publishes the post-rollover
    /// manifest, switches to the new key, re-issues all objects under it.
    void rolloverStep2Switch(Repository& repo, Time now);
    /// Step 3 (parent side, >= ts after step 2): publishes the child's
    /// .roll object, deletes the old RC, logs both.
    void rolloverStep3Finish(const std::string& childName, Repository& repo, Time now);

    /// Signatures left before the key is exhausted (exposed so operators
    /// can schedule rollovers; signing past zero throws KeyExhaustedError).
    std::uint64_t signaturesRemaining() const { return signer_.signaturesRemaining(); }

    // --- misbehaviour hooks (adversarial simulation only) -------------------
    /// §3.2.1(a/b): deletes a child RC with no .dead object.
    void unsafeUnilateralRevokeChild(const std::string& childName, Repository& repo, Time now);
    /// Narrows a child without consent.
    void unsafeUnilateralNarrowChild(const std::string& childName, const ResourceSet& removed,
                                     Repository& repo, Time now);
    /// Counterexample 2: logs a child RC whose resources exceed this
    /// authority's own (honest code would refuse).
    void unsafeIssueOversizedChild(const std::string& childName, const PublicKey& childKey,
                                   ResourceSet resources, Repository& repo, Time now);
    /// Overwrites a child RC with arbitrary resources, no consent, same URI.
    void unsafeOverwriteChild(const std::string& childName, ResourceSet resources,
                              Repository& repo, Time now);
    /// Publishes a post-rollover manifest naming a successor RC that was
    /// never issued — the misbehaviour behind the bad-key-rollover alarm
    /// (Appendix B.2.3 Check1).
    void unsafeBogusPostRollover(Repository& repo, Time now);
    /// Replay attack (§5.3.2 "Preventing replays"): puts an old object's
    /// bytes back into the publication point under `filename` and logs
    /// them in a fresh manifest. Caught by the serial high-water check.
    void unsafeReintroduceFile(const std::string& filename, Bytes oldBytes, Repository& repo,
                               Time now);
    /// Mirror worlds: deep-copies this authority's publication state and
    /// signing key so two diverging histories can be published to two
    /// repositories. Returns the fork (owned by the directory under
    /// name + "#mirror").
    Authority& unsafeForkForMirrorWorld();

    // --- introspection ------------------------------------------------------
    std::uint64_t manifestNumber() const { return currentManifest().number; }
    std::vector<std::string> roaLabels() const;

private:
    friend class AuthorityDirectory;

    struct PreservedFile {
        Bytes bytes;
        HintEntry hint;
        Time preservedAt = 0;
    };

    void requireLive() const;
    /// Stages removal of `filename`, preserving the old version per §5.3.2.
    void stageRemove(const std::string& filename, Time now);
    /// Stages (over)writing `filename`.
    void stagePut(const std::string& filename, Bytes bytes, Time now);
    /// Builds + signs the next manifest and writes the whole point to repo.
    void publishUpdate(Repository& repo, Time now);
    void writePoint(Repository& repo) const;
    ResourceCert makeChildCert(const std::string& childName, const std::string& fileName,
                               const PublicKey& key, ResourceSet resources,
                               const std::string& childPubPoint);
    Authority* findChild(const std::string& childName);
    Digest parentManifestHashNow() const;
    void prunePreserved(Time now);
    /// Verifies that `deads` contains a complete, recursively consistent
    /// consent set for revoking/narrowing `child`.
    void verifyConsent(const Authority& child, const std::vector<DeadObject>& deads,
                       bool fullRevocation, const ResourceSet& removed) const;

    AuthorityDirectory& dir_;
    std::string name_;
    AuthorityOptions options_;
    Signer signer_;
    std::optional<Signer> stagedSigner_;  // during rollover
    ResourceCert cert_;
    std::string pubPointUri_;
    Authority* parent_ = nullptr;
    std::vector<Authority*> children_;

    std::map<std::string, Bytes> files_;  // currently logged files
    std::map<std::string, Signer> roaEeSigners_;  // label -> EE key (footnote-8 mode)
    std::map<std::string, std::uint64_t> firstAppeared_;
    std::map<std::string, PreservedFile> preserved_;  // preservedName -> data
    struct HistoricManifest {
        std::uint64_t number;
        Bytes bytes;
        Time supersededAt;
    };
    std::vector<HistoricManifest> manifestHistory_;
    Manifest manifest_;
    bool hasManifest_ = false;
    std::uint64_t nextSerial_ = 1;
    std::uint64_t highestChildSerial_ = 0;
    bool revoked_ = false;
    bool consented_ = false;
    // Rollover bookkeeping (Appendix A).
    std::string pendingRolloverTargetFile_;          // set between step 1 and step 2
    std::optional<ResourceCert> pendingSuccessorCert_;  // B' as issued in step 1
    std::optional<ResourceCert> oldCertBeforeRollover_; // B, retained for step 3
    std::optional<RollObject> pendingRollObject_;    // signed with the old key in step 2
};

}  // namespace rpkic::consent
