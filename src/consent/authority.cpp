#include "consent/authority.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "rpki/signing.hpp"
#include "util/errors.hpp"

namespace rpkic::consent {

namespace {

std::string pubPointUriFor(const std::string& name) {
    return "rpki://" + name + "/";
}

std::string certFileFor(const std::string& childName, int version) {
    if (version <= 1) return childName + ".cer";
    return childName + "-v" + std::to_string(version) + ".cer";
}

std::string roaFileFor(const std::string& label) {
    return label + ".roa";
}

std::string deadFileFor(const std::string& childFile, std::uint64_t serial,
                        const std::string& consenter) {
    return childFile + "." + std::to_string(serial) + "." + consenter + ".dead";
}

std::string rollFileFor(const std::string& childFile) {
    return childFile + ".roll";
}

Digest fileHash(const Bytes& b) {
    return fileHashOf(ByteView(b.data(), b.size()));
}

/// Authority-side instruments live in the global registry and are looked
/// up per call (coarse operations; never cached, so Registry::reset() in
/// harnesses cannot dangle them). Labels carry the operation, not the
/// authority name: hierarchies are large and per-authority series would
/// explode cardinality.
obs::Counter& authorityOps(const char* op) {
    return obs::Registry::global().counter(
        "rc_authority_ops_total", "Authority publication-point operations", {{"op", op}});
}

obs::Counter& rolloverSteps(const char* step) {
    return obs::Registry::global().counter(
        "rc_authority_rollover_steps_total", "Key rollover protocol steps executed (B.2.2)",
        {{"step", step}});
}

}  // namespace

// ===========================================================================
// AuthorityDirectory

AuthorityDirectory::AuthorityDirectory(std::uint64_t seed, AuthorityOptions options)
    : options_(options), seed_(seed * 0x2545f4914f6cdd1dULL + 0x9e3779b97f4a7c15ULL) {}

Authority& AuthorityDirectory::createTrustAnchor(const std::string& name, ResourceSet resources,
                                                 Repository& repo, Time now, int signerHeight) {
    if (authorities_.count(name) > 0) throw UsageError("duplicate authority name: " + name);
    AuthorityOptions taOptions = options_;
    if (signerHeight > 0) taOptions.signerHeight = signerHeight;
    auto auth = std::make_unique<Authority>(*this, name, taOptions, nextSeed());
    Authority& a = *auth;
    authorities_.emplace(name, std::move(auth));

    a.cert_.subjectName = name;
    a.cert_.uri = "ta://" + name + ".cer";
    a.cert_.serial = 1;
    a.cert_.subjectKey = a.signer_.publicKey();
    a.cert_.parentUri = "";
    a.cert_.pubPointUri = a.pubPointUri_;
    a.cert_.resources = std::move(resources);
    signObject(a.cert_, a.signer_);

    a.publishUpdate(repo, now);  // manifest #1 (empty)
    return a;
}

Authority& AuthorityDirectory::createChild(Authority& parent, const std::string& name,
                                           ResourceSet resources, Repository& repo, Time now,
                                           int signerHeight) {
    if (authorities_.count(name) > 0) throw UsageError("duplicate authority name: " + name);
    AuthorityOptions childOptions = options_;
    if (signerHeight > 0) childOptions.signerHeight = signerHeight;
    auto auth = std::make_unique<Authority>(*this, name, childOptions, nextSeed());
    Authority& child = *auth;
    authorities_.emplace(name, std::move(auth));

    child.parent_ = &parent;
    const std::string fileName = certFileFor(name, 1);
    child.cert_ = parent.makeChildCert(name, fileName, child.signer_.publicKey(),
                                       std::move(resources), child.pubPointUri_);
    // "An authority must publish its manifest before its issuer initially
    // publishes its RC" (§5.3.2) — so relying parties never find a point
    // without a manifest. The point stays unreferenced (hence unvisited)
    // until the parent logs the RC below.
    child.publishUpdate(repo, now);

    parent.children_.push_back(&child);
    parent.stagePut(fileName, child.cert_.encode(), now);
    parent.publishUpdate(repo, now);
    return child;
}

Authority& AuthorityDirectory::get(const std::string& name) {
    const auto it = authorities_.find(name);
    if (it == authorities_.end()) throw UsageError("no such authority: " + name);
    return *it->second;
}

const Authority* AuthorityDirectory::find(const std::string& name) const {
    const auto it = authorities_.find(name);
    return it == authorities_.end() ? nullptr : it->second.get();
}

std::vector<std::string> AuthorityDirectory::names() const {
    std::vector<std::string> out;
    out.reserve(authorities_.size());
    for (const auto& [name, a] : authorities_) out.push_back(name);
    return out;
}

std::vector<DeadObject> AuthorityDirectory::collectRevocationConsent(Authority& target) {
    std::vector<DeadObject> out;
    std::vector<DeadObject> childDeads;
    for (Authority* child : target.children_) {
        if (child->isRevoked()) continue;
        const std::vector<DeadObject> sub = collectRevocationConsent(*child);
        // The child's own .dead is the last element of its collection.
        childDeads.push_back(sub.back());
        out.insert(out.end(), sub.begin(), sub.end());
    }
    out.push_back(target.signDead(/*fullRevocation=*/true, ResourceSet{}, childDeads));
    return out;
}

std::vector<DeadObject> AuthorityDirectory::collectNarrowingConsent(Authority& target,
                                                                    const ResourceSet& removed) {
    std::vector<DeadObject> out;
    std::vector<DeadObject> childDeads;
    for (Authority* child : target.children_) {
        if (child->isRevoked()) continue;
        if (child->cert().resources.isInherit()) continue;  // inherit = implicit consent (§5.3.1)
        if (!child->cert().resources.overlaps(removed)) continue;
        const std::vector<DeadObject> sub = collectNarrowingConsent(*child, removed);
        childDeads.push_back(sub.back());
        out.insert(out.end(), sub.begin(), sub.end());
    }
    out.push_back(target.signDead(/*fullRevocation=*/false, removed, childDeads));
    return out;
}

// ===========================================================================
// Authority

Authority::Authority(AuthorityDirectory& dir, std::string name, AuthorityOptions options,
                     std::uint64_t seed)
    : dir_(dir),
      name_(std::move(name)),
      options_(options),
      signer_(Signer::generate(seed, options.signerHeight)),
      pubPointUri_(pubPointUriFor(name_)) {}

const Manifest& Authority::currentManifest() const {
    if (!hasManifest_) throw UsageError(name_ + " has not published a manifest yet");
    return manifest_;
}

void Authority::requireLive() const {
    if (revoked_) throw ProtocolError(name_ + " has been revoked");
    if (consented_) {
        // Make-before-break: once an authority has signed its own .dead it
        // must stop issuing (§5.3 "Upon being narrowed").
        throw ProtocolError(name_ + " has consented to revocation and must stop issuing");
    }
}

Digest Authority::parentManifestHashNow() const {
    if (parent_ != nullptr && parent_->hasManifest_) return parent_->manifest_.bodyHash();
    return Digest{};
}

void Authority::stagePut(const std::string& filename, Bytes bytes, Time now) {
    RC_OBS_COUNT(authorityOps("stage-put"), 1);
    // `filename` may alias the files_ key about to be erased (callers
    // re-stage objects they found by walking files_); pin a copy before
    // mutating the map.
    const std::string name = filename;
    if (files_.count(name) > 0) {
        // Overwrite: preserve the old version (§5.3.2 "Hints for
        // disappearance").
        stageRemove(name, now);
    }
    files_[name] = std::move(bytes);
    firstAppeared_[name] = manifest_.number + 1;
}

void Authority::stageRemove(const std::string& filename, Time now) {
    RC_OBS_COUNT(authorityOps("stage-remove"), 1);
    const auto it = files_.find(filename);
    if (it == files_.end()) throw UsageError("no such file to remove: " + filename);
    const std::uint64_t lastLogged = manifest_.number;
    const std::string preservedName = preservedObjectName(filename, lastLogged);
    PreservedFile pf;
    pf.bytes = std::move(it->second);
    pf.hint = HintEntry{filename, preservedName, fileHash(pf.bytes),
                        firstAppeared_[filename], lastLogged};
    pf.preservedAt = now;
    preserved_[preservedName] = std::move(pf);
    // Erase by-name maps BEFORE files_: `filename` may alias it->first.
    firstAppeared_.erase(filename);
    files_.erase(it);
}

void Authority::prunePreserved(Time now) {
    // "Every object must be preserved in its publication point for time at
    // least ts" — prune strictly older than that.
    for (auto it = preserved_.begin(); it != preserved_.end();) {
        if (it->second.preservedAt + options_.ts < now) it = preserved_.erase(it);
        else ++it;
    }
    // Preserved manifests follow the same ts rule as preserved objects.
    while (!manifestHistory_.empty() && manifestHistory_.front().supersededAt + options_.ts < now) {
        manifestHistory_.erase(manifestHistory_.begin());
    }
}

void Authority::publishUpdate(Repository& repo, Time now) {
    const obs::Scope scope(
        "authority.publish", "authority",
        obs::runtimeEnabled()
            ? &obs::Registry::global().histogram(
                  "rc_authority_publish_seconds",
                  "Time to assemble, sign, and write one manifest update")
            : nullptr);
    RC_OBS_COUNT(authorityOps("publish"), 1);
    Manifest next;
    if (cert_.uri.empty()) throw UsageError(name_ + " has no RC yet; cannot publish");
    next.issuerRcUri = cert_.uri;
    next.pubPointUri = pubPointUri_;
    next.number = manifest_.number + 1;
    next.thisUpdate = now;
    next.nextUpdate = now + options_.manifestLifetime;
    for (const auto& [filename, bytes] : files_) {
        next.entries.push_back({filename, fileHash(bytes), firstAppeared_[filename]});
    }
    next.prevManifestHash = hasManifest_ ? manifest_.bodyHash() : Digest{};
    next.parentManifestHash = parentManifestHashNow();
    next.highestChildSerial = highestChildSerial_;
    next.tag = ManifestTag::Normal;
    signObject(next, signer_);

    if (hasManifest_) {
        manifestHistory_.push_back({manifest_.number, manifest_.encode(), now});
    }
    manifest_ = std::move(next);
    hasManifest_ = true;
    prunePreserved(now);
    writePoint(repo);
}

void Authority::writePoint(Repository& repo) const {
    repo.removePoint(pubPointUri_);
    for (const auto& [filename, bytes] : files_) repo.putFile(pubPointUri_, filename, bytes);
    repo.putFile(pubPointUri_, kManifestName, manifest_.encode());
    for (const auto& hm : manifestHistory_) {
        repo.putFile(pubPointUri_, preservedManifestName(hm.number), hm.bytes);
    }
    HintsFile hints;
    for (const auto& [preservedName, pf] : preserved_) {
        repo.putFile(pubPointUri_, preservedName, pf.bytes);
        hints.entries.push_back(pf.hint);
    }
    std::sort(hints.entries.begin(), hints.entries.end());
    repo.putFile(pubPointUri_, kHintsName, hints.encode());
}

ResourceCert Authority::makeChildCert(const std::string& childName, const std::string& fileName,
                                      const PublicKey& key, ResourceSet resources,
                                      const std::string& childPubPoint) {
    ResourceCert c;
    c.subjectName = childName;
    c.uri = pubPointUri_ + fileName;
    c.serial = nextSerial_++;
    c.subjectKey = key;
    c.parentUri = cert_.uri;
    c.pubPointUri = childPubPoint;
    c.resources = std::move(resources);
    signObject(c, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, c.serial);
    return c;
}

Authority* Authority::findChild(const std::string& childName) {
    for (Authority* c : children_) {
        if (c->name_ == childName) return c;
    }
    throw UsageError(childName + " is not a child of " + name_);
}

void Authority::refreshManifest(Repository& repo, Time now) {
    requireLive();
    publishUpdate(repo, now);
}

void Authority::issueRoa(const std::string& label, Asn asn, std::vector<RoaPrefix> prefixes,
                         Repository& repo, Time now) {
    issueRoas({{label, asn, std::move(prefixes)}}, repo, now);
}

void Authority::issueRoas(std::vector<RoaSpec> roas, Repository& repo, Time now) {
    requireLive();
    for (auto& spec : roas) {
        const std::string filename = roaFileFor(spec.label);
        Roa roa;
        roa.uri = pubPointUri_ + filename;
        roa.serial = nextSerial_++;
        roa.parentUri = cert_.uri;
        roa.asn = spec.asn;
        roa.prefixes = std::move(spec.prefixes);
        if (options_.roaConsentViaEe) {
            // Footnote-8 mode: a per-ROA EE key entitled to consent. Height 2
            // suffices: the EE key only ever signs one .dead.
            Signer ee = Signer::generate(dir_.nextSeed(), 2);
            roa.hasEeKey = true;
            roa.eeKey = ee.publicKey();
            roaEeSigners_.insert_or_assign(spec.label, std::move(ee));
        }
        signObject(roa, signer_);
        highestChildSerial_ = std::max(highestChildSerial_, roa.serial);
        stagePut(filename, roa.encode(), now);
    }
    publishUpdate(repo, now);
}

void Authority::deleteRoa(const std::string& label, Repository& repo, Time now) {
    requireLive();
    const std::string filename = roaFileFor(label);
    const auto eeIt = roaEeSigners_.find(label);
    if (eeIt != roaEeSigners_.end()) {
        // EE-consent mode: produce and publish the ROA's .dead in the same
        // update that removes it.
        const auto fileIt = files_.find(filename);
        if (fileIt == files_.end()) throw UsageError("no such ROA: " + label);
        const Roa roa = Roa::decode(ByteView(fileIt->second.data(), fileIt->second.size()));
        DeadObject dead;
        dead.rcUri = roa.uri;
        dead.rcSerial = roa.serial;
        dead.rcHash = fileHash(fileIt->second);
        dead.signerManifestHash = hasManifest_ ? manifest_.bodyHash() : Digest{};
        dead.fullRevocation = true;
        signObject(dead, eeIt->second);
        stageRemove(filename, now);
        stagePut(deadFileFor(filename, roa.serial, "ee"), dead.encode(), now);
        roaEeSigners_.erase(eeIt);
        publishUpdate(repo, now);
        return;
    }
    stageRemove(filename, now);
    publishUpdate(repo, now);
}

void Authority::unsafeDeleteRoaWithoutConsent(const std::string& label, Repository& repo,
                                              Time now) {
    stageRemove(roaFileFor(label), now);
    roaEeSigners_.erase(label);
    publishUpdate(repo, now);
}

std::vector<std::string> Authority::roaLabels() const {
    std::vector<std::string> out;
    for (const auto& [filename, bytes] : files_) {
        if (filename.size() > 4 && filename.substr(filename.size() - 4) == ".roa") {
            out.push_back(filename.substr(0, filename.size() - 4));
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Consent

DeadObject Authority::signDead(bool fullRevocation, const ResourceSet& removedResources,
                               const std::vector<DeadObject>& childDeads) {
    RC_OBS_COUNT(authorityOps("sign-dead"), 1);
    DeadObject d;
    d.rcUri = cert_.uri;
    d.rcSerial = cert_.serial;
    d.rcHash = fileHash(cert_.encode());
    d.signerManifestHash = hasManifest_ ? manifest_.bodyHash() : Digest{};
    for (const auto& cd : childDeads) d.childDeadHashes.push_back(fileHash(cd.encode()));
    std::sort(d.childDeadHashes.begin(), d.childDeadHashes.end());
    d.fullRevocation = fullRevocation;
    d.removedResources = removedResources;
    signObject(d, signer_);
    if (fullRevocation) {
        consented_ = true;  // make-before-break: stop issuing from now on
    }
    return d;
}

void Authority::verifyConsent(const Authority& child, const std::vector<DeadObject>& deads,
                              bool fullRevocation, const ResourceSet& removed) const {
    std::map<Digest, const DeadObject*> byHash;
    for (const auto& d : deads) byHash[fileHash(d.encode())] = &d;

    // Recursive completeness check starting at `child`.
    struct Checker {
        const std::map<Digest, const DeadObject*>& byHash;
        bool fullRevocation;
        const ResourceSet& removed;

        const DeadObject* findFor(const Authority& a) const {
            for (const auto& [h, d] : byHash) {
                if (d->rcUri == a.cert().uri && d->rcSerial == a.cert().serial) return d;
            }
            return nullptr;
        }

        void check(const Authority& a) const {
            const DeadObject* d = findFor(a);
            if (d == nullptr) {
                throw ProtocolError("missing .dead consent from " + a.name());
            }
            if (!verifyObject(*d, a.cert().subjectKey)) {
                throw ProtocolError("bad .dead signature from " + a.name());
            }
            if (d->fullRevocation != fullRevocation) {
                throw ProtocolError(".dead scope mismatch from " + a.name());
            }
            for (const Authority* c : a.children()) {
                if (c->isRevoked()) continue;
                if (!fullRevocation) {
                    if (c->cert().resources.isInherit()) continue;
                    if (!c->cert().resources.overlaps(removed)) continue;
                }
                const DeadObject* cd = findFor(*c);
                if (cd == nullptr) {
                    throw ProtocolError("missing .dead consent from descendant " + c->name());
                }
                const Bytes cdWire = cd->encode();
                const Digest h = fileHashOf(ByteView(cdWire.data(), cdWire.size()));
                if (!std::binary_search(d->childDeadHashes.begin(), d->childDeadHashes.end(), h)) {
                    throw ProtocolError(a.name() + "'s .dead does not commit to " + c->name() +
                                        "'s .dead");
                }
                check(*c);
            }
        }
    };
    Checker{byHash, fullRevocation, removed}.check(child);
}

void Authority::revokeChild(const std::string& childName, const std::vector<DeadObject>& deads,
                            Repository& repo, Time now) {
    requireLive();
    Authority* child = findChild(childName);
    verifyConsent(*child, deads, /*fullRevocation=*/true, ResourceSet{});

    // Simultaneously: delete the RC, publish the .deads, log it all in one
    // manifest update. Locate the child's RC file in this point first.
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);
    stageRemove(rcFile, now);
    for (const auto& d : deads) {
        // Disambiguating suffix: child file + serial + consenter (§5.3.1).
        const std::string consenter = d.rcUri;
        const std::string deadName =
            deadFileFor(rcFile, child->cert_.serial,
                        std::to_string(std::hash<std::string>{}(consenter) & 0xffffff));
        stagePut(deadName, d.encode(), now);
    }
    publishUpdate(repo, now);

    // Mark the whole revoked subtree.
    struct Marker {
        static void mark(Authority& a) {
            a.revoked_ = true;
            for (Authority* c : a.children_) {
                if (!c->revoked_) mark(*c);
            }
        }
    };
    Marker::mark(*child);
    children_.erase(std::remove(children_.begin(), children_.end(), child), children_.end());
}

void Authority::narrowChild(const std::string& childName, const ResourceSet& removed,
                            const std::vector<DeadObject>& deads, Repository& repo, Time now) {
    requireLive();
    Authority* child = findChild(childName);
    if (child->cert_.resources.isInherit()) {
        throw UsageError("narrow the parent instead; child inherits");
    }
    verifyConsent(*child, deads, /*fullRevocation=*/false, removed);

    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);

    ResourceCert updated = child->cert_;
    updated.resources = child->cert_.resources.subtract(removed);
    updated.serial = nextSerial_++;
    signObject(updated, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, updated.serial);
    child->cert_ = updated;

    stagePut(rcFile, updated.encode(), now);
    for (const auto& d : deads) {
        const std::string deadName =
            deadFileFor(rcFile, d.rcSerial,
                        std::to_string(std::hash<std::string>{}(d.rcUri) & 0xffffff));
        stagePut(deadName, d.encode(), now);
    }
    publishUpdate(repo, now);
    // Narrowing consent is consumed; the child may issue again within its
    // narrowed resources.
    child->consented_ = false;
}

void Authority::broadenChild(const std::string& childName, const ResourceSet& added,
                             Repository& repo, Time now) {
    requireLive();
    Authority* child = findChild(childName);
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);

    ResourceCert updated = child->cert_;
    updated.resources = child->cert_.resources.unionWith(added);
    updated.serial = nextSerial_++;
    signObject(updated, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, updated.serial);
    child->cert_ = updated;
    stagePut(rcFile, updated.encode(), now);
    publishUpdate(repo, now);
}

// ---------------------------------------------------------------------------
// Key rollover (Appendix A)

void Authority::stageNewKey(Repository& repo, Time now) {
    RC_OBS_COUNT(rolloverSteps("stage-new-key"), 1);
    requireLive();
    stagedSigner_.emplace(Signer::generate(dir_.nextSeed(), options_.signerHeight));

    // B' publishes its special empty "pre-rollover" manifest in the same
    // publication point (under a distinct name; the point keeps one current
    // manifest plus this rollover exception).
    Manifest pre;
    pre.issuerRcUri = pubPointUri_ + "pending-successor";  // fixed up in step 1
    pre.pubPointUri = pubPointUri_;
    pre.number = 0;
    pre.thisUpdate = now;
    pre.nextUpdate = now + options_.manifestLifetime;
    pre.tag = ManifestTag::PreRollover;
    pre.parentManifestHash = parentManifestHashNow();
    signObject(pre, *stagedSigner_);
    repo.putFile(pubPointUri_, "manifest.pre.mft", pre.encode());
}

void Authority::rolloverStep1IssueSuccessor(const std::string& childName, Repository& repo,
                                            Time now) {
    RC_OBS_COUNT(rolloverSteps("issue-successor"), 1);
    requireLive();
    Authority* child = findChild(childName);
    if (!child->stagedSigner_.has_value()) {
        throw UsageError(childName + " has not staged a new key");
    }
    // Find the child's current RC file to derive the successor version.
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);

    int version = 2;
    while (files_.count(certFileFor(childName, version)) > 0) ++version;
    const std::string newFile = certFileFor(childName, version);

    ResourceCert successor =
        makeChildCert(childName, newFile, child->stagedSigner_->publicKey(),
                      child->cert_.resources, child->pubPointUri_);
    child->pendingRolloverTargetFile_ = newFile;
    child->pendingSuccessorCert_ = successor;
    stagePut(newFile, successor.encode(), now);
    publishUpdate(repo, now);
}

void Authority::rolloverStep2Switch(Repository& repo, Time now) {
    RC_OBS_COUNT(rolloverSteps("switch"), 1);
    requireLive();
    if (!stagedSigner_.has_value() || pendingRolloverTargetFile_.empty()) {
        throw UsageError("rollover step 1 has not completed for " + name_);
    }
    Authority* parent = parent_;
    if (parent == nullptr) throw UsageError("trust anchors do not roll over this way");
    const ResourceCert successor = *pendingSuccessorCert_;

    // Post-rollover manifest: B's final manifest, signed with the OLD key.
    Manifest post;
    post.issuerRcUri = cert_.uri;
    post.pubPointUri = pubPointUri_;
    post.number = manifest_.number + 1;
    post.thisUpdate = now;
    post.nextUpdate = now + options_.manifestLifetime;
    post.prevManifestHash = manifest_.bodyHash();
    post.parentManifestHash = parent->manifest_.bodyHash();
    post.highestChildSerial = highestChildSerial_;
    post.tag = ManifestTag::PostRollover;
    post.rolloverTargetUri = successor.uri;
    post.rolloverTargetRcHash = fileHash(successor.encode());
    post.rolloverParentManifestHash = parent->manifest_.bodyHash();
    signObject(post, signer_);
    manifestHistory_.push_back({manifest_.number, manifest_.encode(), now});
    manifest_ = post;

    // The .roll object consenting to the old RC's deletion is signed NOW,
    // with the old key, while it is still in hand; step 3 merely publishes
    // it (Appendix A step 3).
    RollObject roll;
    roll.rcUri = cert_.uri;
    roll.rcSerial = cert_.serial;
    roll.postRolloverManifestHash = post.bodyHash();
    signObject(roll, signer_);
    pendingRollObject_ = std::move(roll);

    // Switch keys and re-issue everything under B' (same serials, new
    // parent pointers, new signatures).
    const ResourceCert oldCert = cert_;
    signer_ = std::move(*stagedSigner_);
    stagedSigner_.reset();
    cert_ = successor;
    oldCertBeforeRollover_ = oldCert;

    // Re-sign pass. Collect the worklist first: stagePut mutates files_
    // (preserve + erase + insert), which would invalidate a live iterator.
    std::vector<std::pair<std::string, Bytes>> restaged;
    for (const auto& [filename, bytes] : files_) {
        const ObjectType type = objectTypeOf(ByteView(bytes.data(), bytes.size()));
        if (type == ObjectType::ResourceCert) {
            ResourceCert c = ResourceCert::decode(ByteView(bytes.data(), bytes.size()));
            c.parentUri = cert_.uri;
            signObject(c, signer_);
            // Keep child Authority objects in sync with their re-issued RC.
            for (Authority* ch : children_) {
                if (ch->cert_.uri == c.uri) ch->cert_ = c;
            }
            restaged.emplace_back(filename, c.encode());
        } else if (type == ObjectType::Roa) {
            Roa r = Roa::decode(ByteView(bytes.data(), bytes.size()));
            r.parentUri = cert_.uri;
            signObject(r, signer_);
            restaged.emplace_back(filename, r.encode());
        }
    }
    for (auto& [filename, wire] : restaged) stagePut(filename, std::move(wire), now);
    // mB': the first manifest of B', successor of the post-rollover
    // manifest (it hash-chains to it).
    publishUpdate(repo, now);
    repo.removeFile(pubPointUri_, "manifest.pre.mft");
}

void Authority::rolloverStep3Finish(const std::string& childName, Repository& repo, Time now) {
    RC_OBS_COUNT(rolloverSteps("finish"), 1);
    requireLive();
    Authority* child = findChild(childName);
    if (!child->oldCertBeforeRollover_.has_value()) {
        throw UsageError(childName + " has not completed rollover step 2");
    }
    const ResourceCert& oldCert = *child->oldCertBeforeRollover_;
    if (!child->pendingRollObject_.has_value()) {
        throw UsageError(childName + " has no pending .roll object");
    }

    std::string oldFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(oldCert.encode())) oldFile = filename;
    }
    if (oldFile.empty()) throw UsageError("old RC file not found for " + childName);

    // Simultaneously: publish the .roll, delete the old RC, log both.
    stageRemove(oldFile, now);
    stagePut(rollFileFor(oldFile), child->pendingRollObject_->encode(), now);
    publishUpdate(repo, now);
    child->oldCertBeforeRollover_.reset();
    child->pendingRolloverTargetFile_.clear();
    child->pendingSuccessorCert_.reset();
    child->pendingRollObject_.reset();
}

// ---------------------------------------------------------------------------
// Misbehaviour hooks

void Authority::unsafeUnilateralRevokeChild(const std::string& childName, Repository& repo,
                                            Time now) {
    Authority* child = findChild(childName);
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);
    stageRemove(rcFile, now);
    publishUpdate(repo, now);
    child->revoked_ = true;
    children_.erase(std::remove(children_.begin(), children_.end(), child), children_.end());
}

void Authority::unsafeUnilateralNarrowChild(const std::string& childName,
                                            const ResourceSet& removed, Repository& repo,
                                            Time now) {
    Authority* child = findChild(childName);
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);
    ResourceCert updated = child->cert_;
    updated.resources = child->cert_.resources.subtract(removed);
    updated.serial = nextSerial_++;
    signObject(updated, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, updated.serial);
    child->cert_ = updated;
    stagePut(rcFile, updated.encode(), now);
    publishUpdate(repo, now);
}

void Authority::unsafeIssueOversizedChild(const std::string& childName, const PublicKey& childKey,
                                          ResourceSet resources, Repository& repo, Time now) {
    const std::string fileName = certFileFor(childName, 1);
    ResourceCert c;
    c.subjectName = childName;
    c.uri = pubPointUri_ + fileName;
    c.serial = nextSerial_++;
    c.subjectKey = childKey;
    c.parentUri = cert_.uri;
    c.pubPointUri = pubPointUriFor(childName);
    c.resources = std::move(resources);
    signObject(c, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, c.serial);
    stagePut(fileName, c.encode(), now);
    publishUpdate(repo, now);
}

void Authority::unsafeOverwriteChild(const std::string& childName, ResourceSet resources,
                                     Repository& repo, Time now) {
    Authority* child = findChild(childName);
    std::string rcFile;
    for (const auto& [filename, bytes] : files_) {
        if (fileHash(bytes) == fileHash(child->cert_.encode())) rcFile = filename;
    }
    if (rcFile.empty()) throw UsageError("child RC file not found for " + childName);
    ResourceCert updated = child->cert_;
    updated.resources = std::move(resources);
    updated.serial = nextSerial_++;
    signObject(updated, signer_);
    highestChildSerial_ = std::max(highestChildSerial_, updated.serial);
    child->cert_ = updated;
    stagePut(rcFile, updated.encode(), now);
    publishUpdate(repo, now);
}

void Authority::unsafeBogusPostRollover(Repository& repo, Time now) {
    Manifest post;
    post.issuerRcUri = cert_.uri;
    post.pubPointUri = pubPointUri_;
    post.number = manifest_.number + 1;
    post.thisUpdate = now;
    post.nextUpdate = now + options_.manifestLifetime;
    post.prevManifestHash = manifest_.bodyHash();
    post.parentManifestHash = parentManifestHashNow();
    post.highestChildSerial = highestChildSerial_;
    post.tag = ManifestTag::PostRollover;
    post.rolloverTargetUri = pubPointUri_ + "phantom-successor.cer";
    post.rolloverTargetRcHash = sha256("no such certificate was ever issued");
    post.rolloverParentManifestHash = parentManifestHashNow();
    signObject(post, signer_);
    manifestHistory_.push_back({manifest_.number, manifest_.encode(), now});
    manifest_ = post;
    writePoint(repo);
}

void Authority::unsafeRemoveFile(const std::string& filename, Repository& repo, Time now) {
    stageRemove(filename, now);
    publishUpdate(repo, now);
}

void Authority::unsafeReintroduceFile(const std::string& filename, Bytes oldBytes,
                                      Repository& repo, Time now) {
    stagePut(filename, std::move(oldBytes), now);
    publishUpdate(repo, now);
}

Authority& Authority::unsafeForkForMirrorWorld() {
    return dir_.registerMirrorFork(*this);
}

Authority& AuthorityDirectory::registerMirrorFork(const Authority& original) {
    const std::string forkName = original.name_ + "#mirror";
    if (authorities_.count(forkName) > 0) throw UsageError("already forked: " + original.name_);
    auto owned = std::make_unique<Authority>(*this, forkName, original.options_, nextSeed());
    Authority& m = *owned;
    m.signer_ = original.signer_.unsafeCloneForAttackSimulation();
    m.cert_ = original.cert_;
    m.pubPointUri_ = original.pubPointUri_;  // SAME point: it impersonates the original
    m.parent_ = original.parent_;
    m.children_ = original.children_;
    m.files_ = original.files_;
    m.firstAppeared_ = original.firstAppeared_;
    m.preserved_ = original.preserved_;
    m.manifestHistory_ = original.manifestHistory_;
    m.manifest_ = original.manifest_;
    m.hasManifest_ = original.hasManifest_;
    m.nextSerial_ = original.nextSerial_;
    m.highestChildSerial_ = original.highestChildSerial_;
    authorities_.emplace(forkName, std::move(owned));
    return m;
}

}  // namespace rpkic::consent
