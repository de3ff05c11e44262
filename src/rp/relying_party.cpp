#include "rp/relying_party.hpp"

#include <algorithm>
#include <deque>
#include <type_traits>

#include "rp/file_index.hpp"
#include "rpki/manifest_chain.hpp"
#include "rpki/signing.hpp"
#include "util/errors.hpp"

namespace rpkic::rp {

namespace {

Digest hashOf(const Bytes& b) {
    return fileHashOf(ByteView(b.data(), b.size()));
}

bool isType(const Bytes& b, ObjectType t) {
    if (b.empty()) return false;
    try {
        return objectTypeOf(ByteView(b.data(), b.size())) == t;
    } catch (const ParseError&) {
        return false;
    }
}

}  // namespace

std::string_view toString(RcStatus s) {
    switch (s) {
        case RcStatus::Valid: return "valid";
        case RcStatus::NoLongerValid: return "no-longer-valid";
        case RcStatus::RolledOver: return "rolled-over";
        case RcStatus::NeverWasValid: return "never-was-valid";
    }
    return "?";
}

RelyingParty::RelyingParty(std::string name, std::vector<ResourceCert> trustAnchors,
                           RpOptions options, obs::Registry* registry)
    : name_(std::move(name)),
      options_(options),
      trustAnchors_(std::move(trustAnchors)),
      registry_(registry != nullptr ? registry : &obs::Registry::global()) {
    alarms_.attachMetrics(registry_, name_);
    const obs::Labels rp{{"rp", name_}};
    syncsTotal_ = &registry_->counter("rc_rp_syncs_total", "Completed sync() passes", rp);
    transitionsTotal_ = &registry_->counter(
        "rc_rp_transitions_total", "Manifest-to-manifest transitions processed", rp);
    const auto procHist = [&](const char* procedure) {
        return &registry_->histogram("rc_rp_procedure_seconds",
                                     "Latency of the Table-10 RC procedures (RC1-RC4)",
                                     {{"rp", name_}, {"procedure", procedure}});
    };
    procNew_ = procHist("new");
    procDeleted_ = procHist("deleted");
    procOverwritten_ = procHist("overwritten");
    procRollover_ = procHist("rollover");
    obs::HistogramSpec depthSpec;
    depthSpec.firstBound = 1.0;
    depthSpec.growth = 2.0;
    depthSpec.bucketCount = 12;
    chainDepth_ = &registry_->histogram(
        "rc_rp_chain_depth",
        "Manifests reconstructed per point sync (horizontal chain depth, paper 5.3.2)", rp,
        depthSpec);
    manifestsDecoded_ = &manifestsDecodedCounter(*registry_, name_);
    objectsDecoded_ = &registry_->counter(
        "rc_rp_objects_decoded_total",
        "RCs, ROAs, .dead and .roll objects decoded by sync() and restore", rp);
    signaturesVerified_ = &registry_->counter(
        "rc_rp_signatures_verified_total",
        "Signature checks: manifests the memo did not cover, .dead and .roll objects", rp);

    for (const auto& ta : trustAnchors_) {
        RcRecord rec;
        rec.cert = ta;
        rec.status = RcStatus::Valid;
        rec.pointUri = "";  // delivered out of band
        rec.filename = ta.uri;
        rec.fileHash = hashOf(ta.encode());
        rcs_.emplace(ta.uri, std::move(rec));
    }
}

obs::Counter& manifestsDecodedCounter(obs::Registry& registry, const std::string& rpName) {
    return registry.counter(
        "rc_rp_manifests_decoded_total",
        "Manifests decoded by the relying party (sync() and restore) and its engine's probe",
        {{"rp", rpName}});
}

template <typename T>
T RelyingParty::decode(const Bytes& bytes) {
    (std::is_same_v<T, Manifest> ? manifestsDecoded_ : objectsDecoded_)->inc();
    return T::decode(ByteView(bytes.data(), bytes.size()));
}

template <typename T>
bool RelyingParty::verify(const T& object, const PublicKey& key) {
    signaturesVerified_->inc();
    return verifyObject(object, key);
}

RcRecord& RelyingParty::writeRc(const std::string& uri) {
    changes_.rcs.insert(uri);
    return rcs_[uri];
}

const RcRecord* RelyingParty::findRc(const std::string& uri) const {
    const auto it = rcs_.find(uri);
    return it == rcs_.end() ? nullptr : &it->second;
}

bool RelyingParty::isPointStale(const std::string& pointUri) const {
    const auto it = points_.find(pointUri);
    return it != points_.end() && it->second.stale;
}

const std::string* RelyingParty::successorOf(const std::string& rcUri) const {
    const auto it = successors_.find(rcUri);
    return it == successors_.end() ? nullptr : &it->second;
}

bool RelyingParty::sawDeadFor(const std::string& rcUri, std::uint64_t serial) const {
    return deadSeen_.count({rcUri, serial}) > 0;
}

bool RelyingParty::sawDeadForResources(const std::string& rcUri, const ResourceSet& r) const {
    for (const auto& d : deadsSeenFull_) {
        if (d.rcUri != rcUri) continue;
        if (d.fullRevocation) return true;
        if (!d.removedResources.isInherit() && !r.isInherit() &&
            d.removedResources.overlaps(r)) {
            return true;
        }
    }
    return false;
}

// ===========================================================================
// Sync driver

void RelyingParty::sync(const LevelSource& fetchLevel, Time now) {
    RC_OBS_COUNT(*syncsTotal_, 1);
    lastSyncTime_ = now;

    // Breadth-first over publication points, ancestors before descendants
    // (§5.4: points not in an ancestor-descendant relation could be
    // parallelized; ancestor-first is the required order along any chain).
    std::vector<std::string> level;
    std::set<std::string> enqueued;
    for (const auto& ta : trustAnchors_) {
        if (enqueued.insert(ta.pubPointUri).second) level.push_back(ta.pubPointUri);
    }
    while (!level.empty()) {
        const Snapshot& snap = fetchLevel(level);
        const obs::Scope scope("rp.sync", "rp");
        std::vector<std::string> next;
        for (const std::string& pointUri : level) {
            processPoint(pointUri, snap, now);
            const auto pcIt = points_.find(pointUri);
            if (pcIt == points_.end() || !pcIt->second.have) continue;
            for (const PointView::RcEntry& rc : pcIt->second.view.rcs) {
                const RcRecord* rec = findRc(rc.uri);
                if (rec == nullptr || rec->status != RcStatus::Valid) continue;
                if (rc.pubPointUri.empty()) continue;
                if (enqueued.insert(rc.pubPointUri).second) next.push_back(rc.pubPointUri);
            }
        }
        level = std::move(next);
    }

    // Expire the global-consistency hash window.
    while (!hashWindow_.empty() && hashWindow_.front().when + options_.tg < now) {
        hashWindow_.pop_front();
        if (changes_.window > 0) {
            --changes_.window;
            ++changes_.windowPopped;
        }
    }
}

void RelyingParty::markPointStale(PointCache& pc, const std::string& pointUri, Time now) {
    if (!pc.stale) changes_.points.insert(pointUri);
    pc.stale = true;
    for (auto& [uri, rec] : rcs_) {
        if (rec.pointUri == pointUri) {
            rec.stale = true;
            rec.lastChange = now;
            changes_.rcs.insert(uri);
        }
    }
}

void RelyingParty::processPoint(const std::string& pointUri, const Snapshot& snap, Time now) {
    const obs::Scope scope("rp.point", "rp");
    const auto [pcIt, created] = points_.try_emplace(pointUri);
    if (created) changes_.points.insert(pointUri);
    PointCache& pc = pcIt->second;

    const Bytes* mftBytes = snap.file(pointUri, kManifestName);
    if (mftBytes == nullptr) {
        alarms_.raise({AlarmType::MissingInformation, pointUri + kManifestName, "", false,
                       "manifest missing", now});
        markPointStale(pc, pointUri, now);
        return;
    }
    // The head's own bytes again decode to the head: no decode, no hash.
    bool sameAsHead = !pc.headBytes.empty() && *mftBytes == pc.headBytes;
    Manifest fetched;
    if (!sameAsHead) {
        try {
            fetched = decode<Manifest>(*mftBytes);
        } catch (const ParseError& e) {
            // Indistinguishable from transfer corruption: unaccountable.
            alarms_.raise({AlarmType::MissingInformation, pointUri + kManifestName, "", false,
                           std::string("manifest undecodable: ") + e.what(), now});
            markPointStale(pc, pointUri, now);
            return;
        }
    }
    const Digest digest = sameAsHead ? pc.headDigest : hashOf(*mftBytes);
    const ManifestFile file{*mftBytes, digest};
    if (!sameAsHead) sameAsHead = relearnHeadBytes(pc, fetched, file);
    const Manifest& m = sameAsHead ? pc.manifest : fetched;
    const RcRecord* issuer = findRc(m.issuerRcUri);
    if (issuer == nullptr || issuer->cert.pubPointUri != pointUri ||
        (issuer->status != RcStatus::Valid && issuer->status != RcStatus::RolledOver)) {
        alarms_.raise({AlarmType::MissingInformation, pointUri + kManifestName, "", false,
                       "no valid issuer RC for manifest", now});
        markPointStale(pc, pointUri, now);
        return;
    }
    const VerifiedManifest candidate{digest, issuer->cert.subjectKey};
    if (pc.verified != candidate) {
        if (!verify(m, issuer->cert.subjectKey)) {
            alarms_.raise({AlarmType::MissingInformation, pointUri + kManifestName, "", false,
                           "manifest signature does not verify", now});
            markPointStale(pc, pointUri, now);
            return;
        }
        pc.verified = candidate;
    }
    if (m.nextUpdate <= now) {
        // §5.3.2: only manifests expire; objects become "stale", and a
        // missing-information alarm is raised.
        alarms_.raise({AlarmType::MissingInformation, pointUri + kManifestName, "", false,
                       "manifest is stale (expired)", now});
        markPointStale(pc, pointUri, now);
        return;
    }

    if (!pc.have) {
        initialPointSync(pc, pointUri, m, file, snap, now);
        return;
    }

    if (m.number == pc.manifest.number) {
        if (sameAsHead || m.bodyHash() == pc.manifest.bodyHash()) {
            if (pc.stale) changes_.points.insert(pointUri);
            pc.stale = false;
            return;
        }
        // Two different manifests with the same number: provable equivocation.
        alarms_.raise({AlarmType::InvalidSyntax, pointUri + kManifestName, m.issuerRcUri, true,
                       "two manifests share number " + std::to_string(m.number), now});
        return;
    }
    if (m.number < pc.manifest.number) {
        // The snapshot regressed (stale serving); keep our newer cache.
        return;
    }

    if (!options_.checkIntermediateStates) {
        // Naive mode (§5.6 Counterexample 1): diff the cached state
        // directly against the head, skipping reconstruction. Attacks that
        // hide inside intermediate states become invisible.
        processTransition(pc, pointUri, pc.manifest, m, nullptr, snap, now);
        hashWindow_.push_back({now, pointUri, m.number, m.bodyHash()});
        return;
    }

    // Reconstruct every intermediate manifest along the horizontal chain
    // (§5.3.2 "Reconstructing intermediate states").
    std::vector<Manifest> chain;
    chain.push_back(pc.manifest);
    for (std::uint64_t k = pc.manifest.number + 1; k < m.number; ++k) {
        const Bytes* raw = snap.file(pointUri, preservedManifestName(k));
        if (raw == nullptr) {
            alarms_.raise({AlarmType::MissingInformation, pointUri + preservedManifestName(k), "",
                           false, "cannot reconstruct intermediate manifest", now});
            markPointStale(pc, pointUri, now);
            return;
        }
        try {
            chain.push_back(decode<Manifest>(*raw));
        } catch (const ParseError& e) {
            alarms_.raise({AlarmType::MissingInformation, pointUri + preservedManifestName(k), "",
                           false, std::string("intermediate manifest undecodable: ") + e.what(),
                           now});
            markPointStale(pc, pointUri, now);
            return;
        }
    }
    chain.push_back(m);

    // Verify the horizontal hash chain terminating in the signed head.
    // The check itself lives in rpki/manifest_chain.hpp so sharded sync
    // workers and the fuzz driver exercise the exact same code.
    if (const ChainCheck check = verifyManifestChain(chain); !check.ok) {
        alarms_.raise({AlarmType::MissingInformation,
                       pointUri + preservedManifestName(chain[check.breakIndex].number), "",
                       false, "horizontal hash chain broken: " + check.reason, now});
        markPointStale(pc, pointUri, now);
        return;
    }

    // Chain verified: record how deep the §5.3.2 reconstruction had to go.
    RC_OBS_OBSERVE(*chainDepth_, static_cast<double>(chain.size() - 1));

    for (std::size_t i = 1; i < chain.size(); ++i) {
        // Only the last manifest, the fetched one, keeps its bytes.
        processTransition(pc, pointUri, chain[i - 1], chain[i],
                          i + 1 == chain.size() ? &file : nullptr, snap, now);
        hashWindow_.push_back({now, pointUri, chain[i].number, chain[i].bodyHash()});
    }
}

void RelyingParty::setHead(PointCache& pc, const Manifest& m, const ManifestFile* file) {
    pc.manifest = m;
    // A post-rollover head logs none of pc.files, which stay the last
    // normal state (processTransition), so it keeps no bytes.
    const bool keep = file != nullptr && m.tag != ManifestTag::PostRollover;
    pc.headBytes = keep ? file->bytes : Bytes();
    pc.headDigest = keep ? file->digest : Digest();
}

bool RelyingParty::relearnHeadBytes(PointCache& pc, const Manifest& fetched,
                                    const ManifestFile& file) {
    if (!pc.have || !pc.headBytes.empty() || fetched.number != pc.manifest.number ||
        fetched.signature != pc.manifest.signature ||
        fetched.bodyHash() != pc.manifest.bodyHash()) {
        return false;
    }
    setHead(pc, fetched, &file);
    return true;
}

std::optional<HeldPoint> RelyingParty::heldOf(const PointCache& pc) {
    if (pc.headBytes.empty()) return std::nullopt;
    return HeldPoint{pc.headBytes, pc.manifest, pc.files};
}

std::optional<HeldPoint> RelyingParty::heldPoint(const std::string& pointUri) const {
    const auto it = points_.find(pointUri);
    return it == points_.end() ? std::nullopt : heldOf(it->second);
}

void RelyingParty::rebuildView(PointCache& pc) {
    pc.view.rcs.clear();
    pc.view.roas.clear();
    for (const auto& [filename, bytes] : pc.files) {
        try {
            if (isType(bytes, ObjectType::ResourceCert)) {
                ResourceCert cert = decode<ResourceCert>(bytes);
                pc.view.rcs.push_back({std::move(cert.uri), std::move(cert.pubPointUri)});
            } else if (isType(bytes, ObjectType::Roa)) {
                Roa roa = decode<Roa>(bytes);
                pc.view.roas.push_back(
                    {filename, std::move(roa.parentUri), roa.asn, std::move(roa.prefixes)});
            }
        } catch (const ParseError&) {
            // alarmed during transition processing
        }
    }
}

std::map<std::string, Bytes> RelyingParty::resolveFiles(const PointCache& pc,
                                                        const std::string& pointUri,
                                                        const Manifest& m, const Snapshot& snap,
                                                        Time now, bool* complete) {
    *complete = true;
    std::map<std::string, Bytes> out;
    static const FileMap kNoFiles;
    const FileMap* current = snap.point(pointUri);
    const std::optional<HeldPoint> held = heldOf(pc);
    FileIndex index(current != nullptr ? *current : kNoFiles, held ? &*held : nullptr);
    for (const ManifestEntry& entry : m.entries) {
        // 1. The file under its own name in the snapshot.
        const Bytes* found = index.named(entry.filename, entry.fileHash);
        // 2. Our cached copy (we may be replaying an older transition).
        if (found == nullptr) found = index.held(entry.filename, entry.fileHash);
        if (found == nullptr && !held) {
            const auto it = pc.files.find(entry.filename);
            if (it != pc.files.end() && hashOf(it->second) == entry.fileHash) {
                found = &it->second;
            }
        }
        // 3. A preserved version anywhere in the point (hints mechanism).
        if (found == nullptr) found = index.anyWith(entry.fileHash);
        if (found == nullptr) {
            alarms_.raise({AlarmType::MissingInformation, pointUri + entry.filename, "", false,
                           "object logged in manifest not obtained", now});
            *complete = false;
            continue;
        }
        out[entry.filename] = *found;
    }
    return out;
}

void RelyingParty::initialPointSync(PointCache& pc, const std::string& pointUri,
                                    const Manifest& m, const ManifestFile& file,
                                    const Snapshot& snap, Time now) {
    changes_.points.insert(pointUri);
    bool complete = true;
    pc.files = resolveFiles(pc, pointUri, m, snap, now, &complete);
    rebuildView(pc);
    setHead(pc, m, &file);
    pc.have = true;
    pc.stale = !complete;
    hashWindow_.push_back({now, pointUri, m.number, m.bodyHash()});

    const std::string ownerUri = m.issuerRcUri;
    for (const auto& [filename, bytes] : pc.files) {
        if (!isType(bytes, ObjectType::ResourceCert)) continue;
        ResourceCert cert;
        try {
            cert = decode<ResourceCert>(bytes);
        } catch (const ParseError& e) {
            alarms_.raise({AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true,
                           e.what(), now});
            continue;
        }
        TransitionContext ctx{pointUri, ownerUri, m,  m, pc.files, pc.files, {}, {},
                              false,    now};
        newRcProcedure(ctx, filename, cert);
    }
}

// ===========================================================================
// Transition processing

void RelyingParty::processTransition(PointCache& pc, const std::string& pointUri,
                                     const Manifest& prev, const Manifest& cur,
                                     const ManifestFile* curFile, const Snapshot& snap,
                                     Time now) {
    const obs::Scope scope("rp.transition", "rp");
    RC_OBS_COUNT(*transitionsTotal_, 1);
    changes_.points.insert(pointUri);
    // --- key rollover interlude (Appendix B.2.3) ---
    if (cur.tag == ManifestTag::PostRollover) {
        const auto successor = checkRollover(pointUri, cur, now);
        if (successor.has_value()) {
            const auto it = rcs_.find(cur.issuerRcUri);
            if (it != rcs_.end()) {
                it->second.status = RcStatus::RolledOver;
                it->second.lastChange = now;
                changes_.rcs.insert(it->first);
            }
            successors_[cur.issuerRcUri] = *successor;
            changes_.successors.insert(cur.issuerRcUri);
        } else {
            // Checks failed: B remains valid, the point is treated as not
            // obtained (Appendix B.2.3).
            markPointStale(pc, pointUri, now);
        }
        // The post-rollover manifest is empty by construction; its entries
        // are NOT deletions. The next transition (to mB') carries the
        // rollover semantics. pc.files stays the last normal state, which
        // this head does not log, so the head keeps no bytes.
        setHead(pc, cur, nullptr);
        return;
    }
    const bool keyRollover = (prev.tag == ManifestTag::PostRollover);
    // Across the rollover boundary, object changes are compared against the
    // last *normal* state (pc.files), which is what prevFiles already holds.

    // --- syntax checks on the manifest pair ---
    const std::string& ownerUri = cur.issuerRcUri;
    if (cur.highestChildSerial < prev.highestChildSerial) {
        alarms_.raise({AlarmType::InvalidSyntax, pointUri + kManifestName, ownerUri, true,
                       "highestChildSerial decreased", now});
    }
    // firstAppeared consistency is only checkable across truly consecutive
    // manifests (a naive RP diffing across a gap cannot judge it).
    if (cur.number == prev.number + 1) {
        for (const ManifestEntry& entry : cur.entries) {
            const ManifestEntry* old = prev.findEntry(entry.filename);
            if (old != nullptr && old->fileHash == entry.fileHash) {
                if (entry.firstAppeared != old->firstAppeared) {
                    alarms_.raise({AlarmType::InvalidSyntax, pointUri + entry.filename, ownerUri,
                                   true, "firstAppeared changed for unchanged object", now});
                }
            } else if (!keyRollover && entry.firstAppeared != cur.number) {
                alarms_.raise({AlarmType::InvalidSyntax, pointUri + entry.filename, ownerUri, true,
                               "firstAppeared does not match appearance", now});
            }
        }
    }

    bool complete = true;
    std::map<std::string, Bytes> curFiles = resolveFiles(pc, pointUri, cur, snap, now, &complete);

    TransitionContext ctx{pointUri, ownerUri, prev, cur, pc.files, curFiles, {}, {},
                          keyRollover, now};

    // --- verify .dead / .roll objects logged in cur ---
    for (const auto& [filename, bytes] : curFiles) {
        if (isType(bytes, ObjectType::Dead)) {
            try {
                DeadObject d = decode<DeadObject>(bytes);
                // The consenter is either an RC we track, or — in the
                // footnote-8 extension — a ROA consenting via its EE key.
                const PublicKey* key = nullptr;
                const RcRecord* named = findRc(d.rcUri);
                PublicKey eeKey;
                if (named != nullptr) {
                    key = &named->cert.subjectKey;
                } else {
                    for (const auto& [prevName, prevBytes] : pc.files) {
                        if (!isType(prevBytes, ObjectType::Roa)) continue;
                        try {
                            const Roa roa = decode<Roa>(prevBytes);
                            if (roa.uri == d.rcUri && roa.hasEeKey) {
                                eeKey = roa.eeKey;
                                key = &eeKey;
                                break;
                            }
                        } catch (const ParseError&) {
                        }
                    }
                }
                if (key == nullptr) {
                    alarms_.raise({AlarmType::MissingInformation, pointUri + filename, "", false,
                                   ".dead names an object we never saw", now});
                    continue;
                }
                if (!verify(d, *key)) {
                    alarms_.raise({AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true,
                                   ".dead signature does not verify", now});
                    continue;
                }
                deadSeen_.insert({d.rcUri, d.rcSerial});
                // Every later manifest that logs the .dead logs it again.
                if (std::find(deadsSeenFull_.begin(), deadsSeenFull_.end(), d) ==
                    deadsSeenFull_.end()) {
                    deadsSeenFull_.push_back(d);
                }
                ctx.deads.push_back(std::move(d));
            } catch (const ParseError& e) {
                alarms_.raise(
                    {AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true, e.what(), now});
            }
        } else if (isType(bytes, ObjectType::Roll)) {
            try {
                RollObject r = decode<RollObject>(bytes);
                const RcRecord* named = findRc(r.rcUri);
                if (named != nullptr && verify(r, named->cert.subjectKey)) {
                    ctx.rolls.push_back(std::move(r));
                } else {
                    alarms_.raise({AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true,
                                   ".roll signature does not verify", now});
                }
            } catch (const ParseError& e) {
                alarms_.raise(
                    {AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true, e.what(), now});
            }
        }
    }

    // Syntax: an RC must not be logged beside its own .dead/.roll.
    for (const auto& d : ctx.deads) {
        for (const auto& [filename, bytes] : curFiles) {
            if (!isType(bytes, ObjectType::ResourceCert)) continue;
            try {
                const ResourceCert c = decode<ResourceCert>(bytes);
                if (c.uri == d.rcUri && c.serial == d.rcSerial) {
                    alarms_.raise({AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true,
                                   "RC logged together with its own .dead", now});
                }
            } catch (const ParseError&) {
            }
        }
    }

    // --- collect RCs on both sides ---
    struct RcFile {
        ResourceCert cert;
        const Bytes* bytes;
    };
    auto collect = [&](const std::map<std::string, Bytes>& files) {
        std::map<std::string, RcFile> out;
        for (const auto& [filename, bytes] : files) {
            if (!isType(bytes, ObjectType::ResourceCert)) continue;
            try {
                out.emplace(filename, RcFile{decode<ResourceCert>(bytes), &bytes});
            } catch (const ParseError& e) {
                alarms_.raise(
                    {AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true, e.what(), now});
            }
        }
        return out;
    };
    const auto prevRcs = collect(pc.files);
    const auto curRcs = collect(curFiles);

    for (const auto& [filename, prevRc] : prevRcs) {
        const auto curIt = curRcs.find(filename);
        if (curIt == curRcs.end()) {
            deletedRcProcedure(ctx, filename, prevRc.cert, *prevRc.bytes);
        } else if (hashOf(*curIt->second.bytes) != hashOf(*prevRc.bytes)) {
            overwrittenRcProcedure(ctx, filename, prevRc.cert, *prevRc.bytes, curIt->second.cert);
        } else if (keyRollover) {
            // Unchanged across a key roll: the object still points at the
            // old RC — Table 10 sends this through the Overwritten
            // procedure, which will fail its rollover case and alarm.
            overwrittenRcProcedure(ctx, filename, prevRc.cert, *prevRc.bytes, curIt->second.cert);
        }
    }
    for (const auto& [filename, curRc] : curRcs) {
        if (prevRcs.find(filename) == prevRcs.end()) {
            newRcProcedure(ctx, filename, curRc.cert);
        }
    }

    // --- ROAs: "manifests must log only valid objects" (§5.3.2) ---
    const auto effOwner = effectiveResourcesOf(ownerUri);
    for (const auto& [filename, bytes] : curFiles) {
        if (!isType(bytes, ObjectType::Roa)) continue;
        const auto* old = prev.findEntry(filename);
        if (old != nullptr && old->fileHash == hashOf(bytes)) continue;  // unchanged
        try {
            const Roa roa = decode<Roa>(bytes);
            if (roa.parentUri != ownerUri) {
                alarms_.raise({AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true,
                               "ROA has wrong parent pointer", now});
                continue;
            }
            if (effOwner.has_value()) {
                for (const auto& rp : roa.prefixes) {
                    if (!effOwner->containsPrefix(rp.prefix)) {
                        alarms_.raise({AlarmType::ChildTooBroad, pointUri + filename, ownerUri,
                                       true, "ROA prefix " + rp.prefix.str() + " not covered",
                                       now});
                        break;
                    }
                }
            }
        } catch (const ParseError& e) {
            alarms_.raise(
                {AlarmType::InvalidSyntax, pointUri + filename, ownerUri, true, e.what(), now});
        }
    }

    // Footnote-8 extension: a vanished ROA carrying an EE key was entitled
    // to consent; whacking it without its EE-signed .dead is alarmable —
    // this turns Case Study 2's silent takedown into an accountable event.
    for (const auto& [filename, bytes] : pc.files) {
        if (!isType(bytes, ObjectType::Roa)) continue;
        if (curFiles.count(filename) > 0) continue;
        try {
            const Roa roa = decode<Roa>(bytes);
            if (!roa.hasEeKey) continue;
            if (!sawDeadFor(roa.uri, roa.serial)) {
                alarms_.raise({AlarmType::UnilateralRevocation, roa.uri, ownerUri,
                               /*accountable=*/!pc.stale,
                               "EE-consenting ROA whacked without its .dead", now});
            }
        } catch (const ParseError&) {
        }
    }

    pc.files = std::move(curFiles);
    rebuildView(pc);
    setHead(pc, cur, curFile);
    pc.stale = !complete;
}

// ===========================================================================
// Table 10 procedures

void RelyingParty::newRcProcedure(TransitionContext& ctx, const std::string& filename,
                                  const ResourceCert& cert) {
    const obs::Scope scope(procNew_);
    const Bytes wire = cert.encode();
    RcRecord rec;
    rec.cert = cert;
    rec.pointUri = ctx.pointUri;
    rec.filename = filename;
    rec.fileHash = hashOf(wire);
    rec.lastChange = ctx.now;

    if (cert.parentUri != ctx.ownerUri) {
        alarms_.raise({AlarmType::InvalidSyntax, ctx.pointUri + filename, ctx.ownerUri, true,
                       "RC has wrong parent pointer", ctx.now});
        rec.status = RcStatus::NeverWasValid;
        writeRc(cert.uri) = std::move(rec);
        return;
    }
    // Replay prevention (§5.3.2): genuinely new RCs must carry serials
    // above the previous manifest's high-water mark.
    if (!ctx.keyRollover && &ctx.prev != &ctx.cur) {
        if (cert.serial <= ctx.prev.highestChildSerial) {
            alarms_.raise({AlarmType::InvalidSyntax, ctx.pointUri + filename, ctx.ownerUri, true,
                           "RC serial not above previous high-water mark", ctx.now});
            rec.status = RcStatus::NeverWasValid;
            writeRc(cert.uri) = std::move(rec);
            return;
        }
    }
    const auto effOwner = effectiveResourcesOf(ctx.ownerUri);
    if (effOwner.has_value() && !cert.resources.subsetOf(*effOwner)) {
        // "Child too broad": the issuer logged an RC it does not cover.
        alarms_.raise({AlarmType::ChildTooBroad, ctx.pointUri + filename, ctx.ownerUri, true,
                       "RC resources exceed issuer's", ctx.now});
        rec.status = RcStatus::NeverWasValid;
        writeRc(cert.uri) = std::move(rec);
        return;
    }
    rec.status = RcStatus::Valid;
    writeRc(cert.uri) = std::move(rec);
}

void RelyingParty::deletedRcProcedure(TransitionContext& ctx, const std::string& filename,
                                      const ResourceCert& cert, const Bytes& certBytes) {
    const obs::Scope scope(procDeleted_);
    (void)filename;  // the alarm names the RC by URI, not by file position
    const auto recIt = rcs_.find(cert.uri);
    const bool wasStale = recIt != rcs_.end() && recIt->second.stale;
    const bool wasRolledOver = recIt != rcs_.end() && recIt->second.status == RcStatus::RolledOver;
    const bool wasRelevant =
        recIt != rcs_.end() && (recIt->second.status == RcStatus::Valid || wasRolledOver);

    // Capture the still-valid descendants BEFORE the subtree is marked:
    // they are the victims the alarms below must name.
    std::vector<std::string> descendants;
    struct Collector {
        const RelyingParty& rp;
        std::vector<std::string>& out;
        void walk(const std::string& rcUri) {
            for (const RcRecord* child : rp.cachedChildren(rcUri)) {
                out.push_back(child->cert.uri);
                walk(child->cert.uri);
            }
        }
    };
    Collector{*this, descendants}.walk(cert.uri);

    markSubtreeNoLongerValid(cert.uri, ctx.now);

    if (!wasRelevant) return;  // never-was-valid / no-longer-valid: nothing to consent to

    if (wasRolledOver) {
        // Rolled RC Procedure: a .roll object must accompany the deletion.
        const bool haveRoll = std::any_of(
            ctx.rolls.begin(), ctx.rolls.end(), [&](const RollObject& r) {
                return r.rcUri == cert.uri && r.rcSerial == cert.serial;
            });
        if (!haveRoll) {
            alarms_.raise({AlarmType::UnilateralRevocation, cert.uri, ctx.ownerUri,
                           /*accountable=*/!wasStale, "rolled-over RC deleted without .roll",
                           ctx.now});
        }
        return;
    }

    // Deleted RC Procedure: find the proper .dead for this RC...
    const DeadObject* own = nullptr;
    for (const auto& d : ctx.deads) {
        if (d.rcUri == cert.uri && d.rcSerial == cert.serial && d.fullRevocation &&
            d.rcHash == hashOf(certBytes)) {
            own = &d;
        }
    }
    if (own == nullptr) {
        alarms_.raise({AlarmType::UnilateralRevocation, cert.uri, ctx.ownerUri,
                       /*accountable=*/!wasStale,
                       "RC deleted without .dead consent (and all descendants whacked)",
                       ctx.now});
        // "...with C and all of its descendants as victims" (Appendix B
        // Deleted RC Procedure): every whacked descendant is named, so a
        // victim can find itself in the alarm (Theorem 5.1 condition 4).
        for (const std::string& victim : descendants) {
            alarms_.raise({AlarmType::UnilateralRevocation, victim, ctx.ownerUri,
                           /*accountable=*/!wasStale,
                           "whacked by unilateral revocation of ancestor", ctx.now});
        }
        return;
    }
    // ...and recursively for every valid descendant (paper §5.3.1).
    struct Walker {
        RelyingParty& rp;
        TransitionContext& ctx;
        void walk(const std::string& rcUri, const DeadObject& parentDead) {
            for (const RcRecord* child : rp.cachedChildren(rcUri)) {
                // Children already independently revoked/invalid need not consent.
                const DeadObject* childDead = nullptr;
                for (const auto& d : ctx.deads) {
                    if (d.rcUri == child->cert.uri && d.rcSerial == child->cert.serial) {
                        childDead = &d;
                    }
                }
                if (childDead == nullptr) {
                    // Blame the deepest authority whose .dead fails to cover
                    // a child (Appendix B "Deleted RC Procedure").
                    rp.alarms_.raise({AlarmType::UnilateralRevocation, child->cert.uri, rcUri,
                                      /*accountable=*/true,
                                      "descendant revoked without its own .dead", ctx.now});
                    continue;
                }
                const Bytes wire = childDead->encode();
                const Digest h = hashOf(wire);
                if (std::find(parentDead.childDeadHashes.begin(),
                              parentDead.childDeadHashes.end(),
                              h) == parentDead.childDeadHashes.end()) {
                    rp.alarms_.raise({AlarmType::UnilateralRevocation, child->cert.uri, rcUri,
                                      /*accountable=*/true,
                                      ".dead does not commit to descendant's .dead", ctx.now});
                }
                walk(child->cert.uri, *childDead);
            }
        }
    };
    Walker{*this, ctx}.walk(cert.uri, *own);
}

void RelyingParty::overwrittenRcProcedure(TransitionContext& ctx, const std::string& filename,
                                          const ResourceCert& oldCert, const Bytes& oldBytes,
                                          const ResourceCert& newCert) {
    const obs::Scope scope(procOverwritten_);
    // Table 10: a *never-was-valid* RC that changes goes through the New
    // RC procedure — there is nothing valid to consent about.
    const RcRecord* prior = findRc(oldCert.uri);
    if (prior != nullptr && prior->status == RcStatus::NeverWasValid) {
        newRcProcedure(ctx, filename, newCert);
        return;
    }

    // Case 1 (key rollover): identical except the parent pointer moved to B'.
    if (ctx.keyRollover) {
        if (newCert.parentUri == ctx.ownerUri && newCert.subjectName == oldCert.subjectName &&
            newCert.uri == oldCert.uri && newCert.pubPointUri == oldCert.pubPointUri &&
            newCert.resources == oldCert.resources && newCert.serial == oldCert.serial) {
            auto& rec = writeRc(newCert.uri);
            rec.cert = newCert;
            rec.fileHash = hashOf(newCert.encode());
            rec.pointUri = ctx.pointUri;
            rec.filename = filename;
            rec.lastChange = ctx.now;
            return;  // status preserved
        }
        // Not a clean re-point: fall through to delete+new semantics.
        deletedRcProcedure(ctx, filename, oldCert, oldBytes);
        newRcProcedure(ctx, filename, newCert);
        return;
    }

    if (newCert.sameFieldsExceptResources(oldCert) && newCert.serial > oldCert.serial &&
        !newCert.resources.isInherit() && !oldCert.resources.isInherit()) {
        const ResourceSet removed = oldCert.resources.subtract(newCert.resources);
        const auto effOwner = effectiveResourcesOf(ctx.ownerUri);
        if (effOwner.has_value() && !newCert.resources.subsetOf(*effOwner)) {
            alarms_.raise({AlarmType::ChildTooBroad, ctx.pointUri + filename, ctx.ownerUri, true,
                           "overwritten RC exceeds issuer's resources", ctx.now});
            return;
        }
        auto& rec = writeRc(newCert.uri);
        const bool wasStale = rec.stale;
        if (removed.empty()) {
            // Case 2: resources added (or unchanged): no consent needed;
            // descendants previously out of coverage are re-evaluated.
            rec.cert = newCert;
            rec.status = RcStatus::Valid;
            rec.fileHash = hashOf(newCert.encode());
            rec.pointUri = ctx.pointUri;
            rec.filename = filename;
            rec.lastChange = ctx.now;
            reevaluateSubtree(newCert.uri, ctx.now);
            return;
        }
        // Case 3: resources removed — needs .dead from the RC itself and
        // from every impacted valid descendant.
        const DeadObject* own = nullptr;
        for (const auto& d : ctx.deads) {
            if (d.rcUri == oldCert.uri && d.rcSerial == oldCert.serial && !d.fullRevocation) {
                own = &d;
            }
        }
        if (own == nullptr) {
            alarms_.raise({AlarmType::UnilateralRevocation, oldCert.uri, ctx.ownerUri,
                           /*accountable=*/!wasStale, "RC narrowed without .dead consent",
                           ctx.now});
        }
        // Impacted descendants must have consented too — and when they did
        // not, they are alarm victims in their own right ("raise unilateral
        // revocation alarms as in the Deleted RC Procedure"), whether or
        // not the narrowed RC itself consented.
        for (const RcRecord* child : cachedChildren(oldCert.uri)) {
            if (child->cert.resources.isInherit()) continue;
            if (!child->cert.resources.overlaps(removed)) continue;
            if (!sawDeadFor(child->cert.uri, child->cert.serial)) {
                alarms_.raise({AlarmType::UnilateralRevocation, child->cert.uri,
                               own == nullptr ? ctx.ownerUri : oldCert.uri,
                               /*accountable=*/!wasStale,
                               "narrowing impacts descendant without its .dead", ctx.now});
            }
        }
        rec.cert = newCert;
        rec.status = RcStatus::Valid;
        rec.fileHash = hashOf(newCert.encode());
        rec.pointUri = ctx.pointUri;
        rec.filename = filename;
        rec.lastChange = ctx.now;
        reevaluateSubtree(newCert.uri, ctx.now);
        return;
    }

    // Anything else: deletion of the old RC plus appearance of a new one.
    deletedRcProcedure(ctx, filename, oldCert, oldBytes);
    newRcProcedure(ctx, filename, newCert);
}

std::optional<std::string> RelyingParty::checkRollover(const std::string& pointUri,
                                                       const Manifest& post, Time now) {
    const obs::Scope scope(procRollover_);
    const std::string& oldUri = post.issuerRcUri;
    // Check0: well-formed post-rollover payload.
    if (post.rolloverTargetUri.empty() || post.rolloverTargetRcHash.isZero()) {
        alarms_.raise({AlarmType::BadKeyRollover, pointUri + kManifestName, oldUri, true,
                       "post-rollover manifest lacks target (Check0)", now});
        return std::nullopt;
    }
    // Check1: the successor RC is present in our cache with matching bytes.
    const RcRecord* target = findRc(post.rolloverTargetUri);
    if (target == nullptr || target->fileHash != post.rolloverTargetRcHash) {
        // Accountable if we hold the parent's manifest and it provably does
        // not log the claimed successor (Appendix B.2.3, condition 2).
        bool accountable = target != nullptr;  // mismatched bytes: provable
        const RcRecord* old = findRc(oldUri);
        if (!accountable && old != nullptr) {
            const RcRecord* parentRec = findRc(old->cert.parentUri);
            if (parentRec != nullptr) {
                const auto pcIt = points_.find(parentRec->cert.pubPointUri);
                if (pcIt != points_.end() && pcIt->second.have) {
                    bool logged = false;
                    for (const auto& entry : pcIt->second.manifest.entries) {
                        if (entry.fileHash == post.rolloverTargetRcHash) logged = true;
                    }
                    accountable = !logged;
                }
            }
        }
        alarms_.raise({AlarmType::BadKeyRollover, pointUri + kManifestName, oldUri, accountable,
                       "successor RC not obtained / mismatched (Check1)", now});
        return std::nullopt;
    }
    // Check2: the successor is valid.
    if (target->status != RcStatus::Valid) {
        alarms_.raise({AlarmType::BadKeyRollover, pointUri + kManifestName, oldUri, false,
                       "successor RC not valid (Check2)", now});
        return std::nullopt;
    }
    // Check3: same parent and resources as the old RC.
    const RcRecord* old = findRc(oldUri);
    if (old == nullptr || target->cert.parentUri != old->cert.parentUri ||
        !(target->cert.resources == old->cert.resources) ||
        target->cert.pubPointUri != old->cert.pubPointUri) {
        alarms_.raise({AlarmType::BadKeyRollover, pointUri + kManifestName, oldUri, true,
                       "successor differs in parent/resources (Check3)", now});
        return std::nullopt;
    }
    return post.rolloverTargetUri;
}

// ===========================================================================
// Status bookkeeping

std::vector<const RcRecord*> RelyingParty::cachedChildren(const std::string& rcUri) const {
    std::vector<const RcRecord*> out;
    for (const auto& [uri, rec] : rcs_) {
        if (rec.cert.parentUri != rcUri) continue;
        if (rec.status == RcStatus::Valid || rec.status == RcStatus::RolledOver) {
            out.push_back(&rec);
        }
    }
    return out;
}

void RelyingParty::markSubtreeNoLongerValid(const std::string& rcUri, Time now) {
    const auto it = rcs_.find(rcUri);
    if (it == rcs_.end()) return;
    if (it->second.status == RcStatus::Valid || it->second.status == RcStatus::RolledOver) {
        it->second.status = RcStatus::NoLongerValid;
        it->second.lastChange = now;
        changes_.rcs.insert(rcUri);
    }
    for (const auto& [uri, rec] : rcs_) {
        if (rec.cert.parentUri == rcUri &&
            (rec.status == RcStatus::Valid || rec.status == RcStatus::RolledOver)) {
            markSubtreeNoLongerValid(uri, now);
        }
    }
}

void RelyingParty::reevaluateSubtree(const std::string& rcUri, Time now) {
    const auto eff = effectiveResourcesOf(rcUri);
    if (!eff.has_value()) return;
    for (auto& [uri, rec] : rcs_) {
        if (rec.cert.parentUri != rcUri) continue;
        const bool covered = rec.cert.resources.subsetOf(*eff);

        if (rec.status == RcStatus::Valid && !covered) {
            // Narrowing case: a previously-valid child lost coverage
            // ("re-evaluate the validity of every descendant of C",
            // Overwritten RC Procedure case 3). Its whole subtree follows.
            markSubtreeNoLongerValid(uri, now);
            continue;
        }
        if (rec.status != RcStatus::NoLongerValid && rec.status != RcStatus::NeverWasValid) {
            continue;
        }
        if (!covered) continue;
        // The RC must still be logged by its issuer's current manifest.
        const auto pcIt = points_.find(rec.pointUri);
        if (pcIt == points_.end()) continue;
        const ManifestEntry* entry = pcIt->second.manifest.findEntry(rec.filename);
        if (entry == nullptr || entry->fileHash != rec.fileHash) continue;
        rec.status = RcStatus::Valid;
        rec.lastChange = now;
        changes_.rcs.insert(uri);
        reevaluateSubtree(uri, now);
    }
}

std::optional<ResourceSet> RelyingParty::effectiveResourcesOf(const std::string& rcUri) const {
    const RcRecord* rec = findRc(rcUri);
    if (rec == nullptr) return std::nullopt;
    if (!rec->cert.resources.isInherit()) return rec->cert.resources;
    if (rec->cert.parentUri.empty()) return std::nullopt;  // inherit at a TA: unresolvable
    return effectiveResourcesOf(rec->cert.parentUri);
}

// ===========================================================================
// Validity outputs

template <typename Fn>
void RelyingParty::forEachValidRoa(Fn&& fn) const {
    // Walk from trust anchors through Valid RCs only.
    std::deque<const RcRecord*> queue;
    for (const auto& ta : trustAnchors_) {
        const RcRecord* rec = findRc(ta.uri);
        if (rec != nullptr && rec->status == RcStatus::Valid) queue.push_back(rec);
    }
    std::set<std::string> visitedPoints;
    while (!queue.empty()) {
        const RcRecord* rec = queue.front();
        queue.pop_front();
        const auto pcIt = points_.find(rec->cert.pubPointUri);
        if (pcIt == points_.end() || !pcIt->second.have) continue;
        if (!visitedPoints.insert(rec->cert.pubPointUri).second) continue;
        const PointCache& pc = pcIt->second;
        const auto eff = effectiveResourcesOf(rec->cert.uri);
        for (const PointView::RoaEntry& roa : pc.view.roas) {
            if (roa.parentUri != rec->cert.uri) continue;
            bool covered = eff.has_value();
            if (covered) {
                for (const auto& rp : roa.prefixes) {
                    if (!eff->containsPrefix(rp.prefix)) covered = false;
                }
            }
            if (covered) fn(pc, roa);
        }
        for (const PointView::RcEntry& rc : pc.view.rcs) {
            const RcRecord* childRec = findRc(rc.uri);
            if (childRec != nullptr && childRec->status == RcStatus::Valid) {
                queue.push_back(childRec);
            }
        }
    }
}

std::vector<Roa> RelyingParty::validRoas() const {
    std::vector<Roa> out;
    forEachValidRoa([&](const PointCache& pc, const PointView::RoaEntry& roa) {
        const Bytes& bytes = pc.files.at(roa.filename);
        out.push_back(Roa::decode(ByteView(bytes.data(), bytes.size())));
    });
    return out;
}

RpkiState RelyingParty::roaState(std::size_t* roaCount) const {
    std::vector<RoaTuple> tuples;
    std::size_t roas = 0;
    forEachValidRoa([&](const PointCache&, const PointView::RoaEntry& roa) {
        ++roas;
        for (const auto& rp : roa.prefixes) tuples.push_back({rp.prefix, rp.maxLength, roa.asn});
    });
    if (roaCount != nullptr) *roaCount = roas;
    return RpkiState(std::move(tuples));
}

// ===========================================================================
// Global consistency check (§5.4)

std::vector<ManifestClaim> RelyingParty::exportManifestClaims() const {
    std::vector<ManifestClaim> out;
    for (const auto& [pointUri, pc] : points_) {
        if (pc.have) out.push_back({pointUri, pc.manifest.number, pc.manifest.bodyHash()});
    }
    return out;
}

void RelyingParty::globalConsistencyCheck(const std::vector<ManifestClaim>& fromOther,
                                          Time now) {
    for (const ManifestClaim& claim : fromOther) {
        const bool found = std::any_of(
            hashWindow_.begin(), hashWindow_.end(),
            [&](const ObtainedHash& h) { return h.bodyHash == claim.bodyHash; });
        if (found) continue;

        // Accountable if we obtained a *different* manifest for the same
        // point and number, or a pair of consecutive manifests bracketing
        // the claimed number: the chains provably diverge.
        bool accountable = false;
        std::string perpetrator;
        for (const ObtainedHash& h : hashWindow_) {
            if (h.pointUri != claim.pointUri) continue;
            if (h.number == claim.number && h.bodyHash != claim.bodyHash) {
                accountable = true;
            }
        }
        if (accountable) {
            const auto pcIt = points_.find(claim.pointUri);
            if (pcIt != points_.end() && pcIt->second.have) {
                perpetrator = pcIt->second.manifest.issuerRcUri;
            }
        }
        alarms_.raise({AlarmType::GlobalInconsistency,
                       claim.pointUri + "#" + std::to_string(claim.number), perpetrator,
                       accountable, "peer saw a manifest we never obtained", now});
    }
}

}  // namespace rpkic::rp
