#include "sim/driver.hpp"

#include <algorithm>

#include "util/errors.hpp"

namespace rpkic::sim {

using consent::Authority;
using consent::AuthorityDirectory;

namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

/// The n-th /24 inside `base` (wrapping within the base's span).
IpPrefix nthSub24(const IpPrefix& base, int n) {
    const std::uint64_t span = static_cast<std::uint64_t>(base.addressCount()) >> 8;  // /24 blocks
    const std::uint64_t index = span == 0 ? 0 : static_cast<std::uint64_t>(n) % span;
    const std::uint32_t addr =
        static_cast<std::uint32_t>(base.firstAddress().toU64() + (index << 8));
    return IpPrefix::v4(addr, 24);
}

std::vector<std::string> subtreeUris(const Authority& a) {
    std::vector<std::string> out{a.cert().uri};
    for (const Authority* c : a.children()) {
        const auto sub = subtreeUris(*c);
        out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
}

}  // namespace

RandomScheduleDriver::RandomScheduleDriver(DriverConfig config)
    : config_(config), rng_(config.seed), dir_(config.seed, config.authority) {
    Authority& rir = dir_.createTrustAnchor(
        "rir", ResourceSet::ofPrefixes({pfx("10.0.0.0/8"), pfx("20.0.0.0/8")}), repo_, 0);
    Authority& isp1 =
        dir_.createChild(rir, "isp1", ResourceSet::ofPrefixes({pfx("10.0.0.0/9")}), repo_, 0);
    dir_.createChild(rir, "isp2", ResourceSet::ofPrefixes({pfx("10.128.0.0/9")}), repo_, 0);
    dir_.createChild(isp1, "cust1", ResourceSet::ofPrefixes({pfx("10.0.0.0/16")}), repo_, 0);
    record(0, "initial hierarchy", false);
}

std::vector<ResourceCert> RandomScheduleDriver::trustAnchors() const {
    return {dir_.find("rir")->cert()};
}

Authority* RandomScheduleDriver::randomLiveAuthority(bool allowRoot) {
    std::vector<Authority*> live;
    for (const auto& name : dir_.names()) {
        Authority& a = dir_.get(name);
        if (a.isRevoked() || a.hasConsentedToDeath() || !a.hasPublished()) continue;
        if (!allowRoot && a.parent() == nullptr) continue;
        if (a.name().find("#mirror") != std::string::npos) continue;
        live.push_back(&a);
    }
    if (live.empty()) return nullptr;
    return live[static_cast<std::size_t>(rng_.nextBelow(live.size()))];
}

void RandomScheduleDriver::record(Time now, std::string description, bool adversarial,
                                  std::vector<std::string> victims) {
    log_.push_back({now, std::move(description), adversarial, std::move(victims)});
}

bool RandomScheduleDriver::continueRollover(Time now) {
    if (!rollover_.has_value()) return false;
    if (now < rollover_->lastStepAt + config_.authority.ts) return false;
    try {
        Authority& parent = dir_.get(rollover_->parent);
        Authority& child = dir_.get(rollover_->child);
        if (child.isRevoked() || parent.isRevoked()) {
            record(now, "rollover abandoned: participant revoked", false);
            rollover_.reset();
            return true;
        }
        if (rollover_->phase == 1) {
            child.rolloverStep2Switch(repo_, now);
            rollover_->phase = 2;
            rollover_->lastStepAt = now;
            record(now, child.name() + " completes rollover step 2 (key switch)", false);
        } else {
            parent.rolloverStep3Finish(rollover_->child, repo_, now);
            record(now, parent.name() + " completes rollover step 3 (.roll published)",
                   false);
            rollover_.reset();
        }
        return true;
    } catch (const Error& e) {
        record(now, std::string("rollover abandoned: ") + e.what(), false);
        rollover_.reset();
        return true;
    }
}

const OpLogEntry& RandomScheduleDriver::step(Time now) {
    if (continueRollover(now)) return log_.back();
    const bool adversarial = rng_.nextBool(config_.adversarialProbability);
    try {
        if (adversarial) {
            // Pick an authority with at least one child and whack it.
            Authority* parent = randomLiveAuthority(/*allowRoot=*/true);
            if (parent != nullptr && !parent->children().empty()) {
                Authority* child = parent->children()[static_cast<std::size_t>(
                    rng_.nextBelow(parent->children().size()))];
                if (rng_.nextBool(0.5)) {
                    std::vector<std::string> victims = subtreeUris(*child);
                    const std::string desc =
                        parent->name() + " unilaterally revokes " + child->name();
                    parent->unsafeUnilateralRevokeChild(child->name(), repo_, now);
                    record(now, desc, true, std::move(victims));
                    return log_.back();
                }
                if (!child->cert().resources.isInherit()) {
                    // Narrow away half the child's space without consent.
                    const auto& v4 = child->cert().resources.v4();
                    if (!v4.empty()) {
                        const auto iv = v4.intervals().front();
                        ResourceSet removed;
                        removed.addRangeV4(iv.lo, iv.lo + (iv.hi - iv.lo) / 2);
                        const std::string desc =
                            parent->name() + " unilaterally narrows " + child->name();
                        parent->unsafeUnilateralNarrowChild(child->name(), removed, repo_, now);
                        record(now, desc, true, {child->cert().uri});
                        return log_.back();
                    }
                }
            }
            record(now, "adversarial op skipped (no target)", false);
            return log_.back();
        }

        // Legal operation.
        const int op = static_cast<int>(rng_.nextBelow(7));
        Authority* a = randomLiveAuthority(/*allowRoot=*/true);
        if (a == nullptr) {
            record(now, "no live authority", false);
            return log_.back();
        }
        switch (op) {
            case 0: {  // issue a ROA
                if (a->cert().resources.isInherit() || a->cert().resources.v4().empty()) break;
                const auto iv = a->cert().resources.v4().intervals().front();
                const IpPrefix base =
                    IpPrefix::v4(static_cast<std::uint32_t>(iv.lo), 16).canonicalized();
                const IpPrefix p = nthSub24(base, ++roaCounter_);
                a->issueRoa("roa" + std::to_string(roaCounter_),
                            static_cast<Asn>(64500 + roaCounter_), {{p, 24}}, repo_, now);
                record(now, a->name() + " issues ROA for " + p.str(), false);
                return log_.back();
            }
            case 1: {  // delete a ROA
                const auto labels = a->roaLabels();
                if (labels.empty()) break;
                const std::string label =
                    labels[static_cast<std::size_t>(rng_.nextBelow(labels.size()))];
                a->deleteRoa(label, repo_, now);
                record(now, a->name() + " deletes ROA " + label, false);
                return log_.back();
            }
            case 2: {  // broaden a child
                if (a->children().empty()) break;
                Authority* child = a->children()[static_cast<std::size_t>(
                    rng_.nextBelow(a->children().size()))];
                if (child->cert().resources.isInherit()) break;
                // Carve a fresh /20 out of 20.0.0.0/8 (only the root holds
                // it, so only root-issued children stay covered).
                if (a->parent() != nullptr) break;
                ResourceSet added;
                const std::uint32_t base =
                    0x14000000u + (static_cast<std::uint32_t>(++childCounter_) << 12);
                added.addPrefix(IpPrefix::v4(base, 20));
                a->broadenChild(child->name(), added, repo_, now);
                record(now, a->name() + " broadens " + child->name(), false);
                return log_.back();
            }
            case 3: {  // consensual revocation of a leaf
                if (a->children().empty()) break;
                Authority* child = a->children()[static_cast<std::size_t>(
                    rng_.nextBelow(a->children().size()))];
                const auto deads = dir_.collectRevocationConsent(*child);
                const std::string desc =
                    a->name() + " revokes " + child->name() + " WITH consent";
                a->revokeChild(child->name(), deads, repo_, now);
                record(now, desc, false);
                return log_.back();
            }
            case 4: {  // create a replacement child
                if (a->parent() != nullptr) break;  // only under the root, space is known
                const std::string name = "org" + std::to_string(++childCounter_);
                const std::uint32_t base =
                    0x14800000u + (static_cast<std::uint32_t>(childCounter_) << 12);
                dir_.createChild(*a, name,
                                 ResourceSet::ofPrefixes({IpPrefix::v4(base, 20)}), repo_, now);
                record(now, a->name() + " creates child " + name, false);
                return log_.back();
            }
            case 5: {  // heartbeat refresh
                a->refreshManifest(repo_, now);
                record(now, a->name() + " refreshes its manifest", false);
                return log_.back();
            }
            case 6: {  // begin a key rollover (continues over later steps)
                if (rollover_.has_value()) break;
                if (a->parent() == nullptr || a->isRevoked()) break;
                Authority* parent = a->parent();
                a->stageNewKey(repo_, now);
                parent->rolloverStep1IssueSuccessor(a->name(), repo_, now);
                rollover_ = RolloverInFlight{parent->name(), a->name(), 1, now};
                record(now, a->name() + " begins key rollover (step 1)", false);
                return log_.back();
            }
            default: break;
        }
        record(now, "op skipped (preconditions unmet)", false);
        return log_.back();
    } catch (const KeyExhaustedError&) {
        record(now, "key exhausted; operation skipped (rollover would be scheduled)", false);
        return log_.back();
    } catch (const Error& e) {
        // Precondition races (e.g. an op drawn against a child revoked
        // earlier in the schedule). Authority operations verify requireLive()
        // before mutating, so a throw here left no partial state; long soak
        // schedules must survive it.
        record(now, std::string("operation skipped: ") + e.what(), false);
        return log_.back();
    }
}

// ===========================================================================
// Counterexamples (§5.6)

CounterexampleResult runCounterexample1(std::uint64_t seed) {
    // X issues Y; then alternates Y' (broadened) and Y (narrowed back,
    // without consent). Alice syncs only when Y is current.
    Repository repo;
    consent::AuthorityOptions opts{.ts = 10, .signerHeight = 6, .manifestLifetime = 100};
    AuthorityDirectory dir(seed, opts);
    SimClock clock;
    Authority& x = dir.createTrustAnchor("x", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                         repo, clock.now());
    dir.createChild(x, "y", ResourceSet::ofPrefixes({pfx("10.0.0.0/16")}), repo, clock.now());

    rp::RelyingParty alice("alice", {x.cert()},
                           rp::RpOptions{.ts = 10, .tg = 20, .checkIntermediateStates = true});
    rp::RelyingParty naive("naive", {x.cert()},
                           rp::RpOptions{.ts = 10, .tg = 20, .checkIntermediateStates = false});
    alice.sync(repo.snapshot(), clock.now());
    naive.sync(repo.snapshot(), clock.now());

    const ResourceSet broadened =
        ResourceSet::ofPrefixes({pfx("10.0.0.0/16"), pfx("10.99.0.0/16")});
    const ResourceSet narrow = ResourceSet::ofPrefixes({pfx("10.0.0.0/16")});
    for (int round = 0; round < 3; ++round) {
        clock.advance(1);
        x.unsafeOverwriteChild("y", broadened, repo, clock.now());  // even state: Y'
        clock.advance(1);
        x.unsafeOverwriteChild("y", narrow, repo, clock.now());  // odd state: Y (no .dead!)
        // Alice syncs only at odd states.
        alice.sync(repo.snapshot(), clock.now());
        naive.sync(repo.snapshot(), clock.now());
    }

    CounterexampleResult out;
    out.alarmsWithIntermediateChecks =
        alice.alarms().ofType(rp::AlarmType::UnilateralRevocation).size();
    out.alarmsWithoutIntermediateChecks =
        naive.alarms().ofType(rp::AlarmType::UnilateralRevocation).size();
    out.alarms = alice.alarms().all();
    return out;
}

CounterexampleResult runCounterexample2(std::uint64_t seed) {
    // X (small block) logs an oversized child Y; later X is broadened so Y
    // becomes valid. Relying parties that do not alarm on invalid logged
    // objects end up in mirror worlds depending on when they synced.
    Repository repo;
    consent::AuthorityOptions opts{.ts = 10, .signerHeight = 6, .manifestLifetime = 100};
    AuthorityDirectory dir(seed, opts);
    SimClock clock;
    Authority& root = dir.createTrustAnchor(
        "root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}), repo, clock.now());
    Authority& x =
        dir.createChild(root, "x", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}), repo,
                        clock.now());

    rp::RelyingParty alice("alice", {root.cert()},
                           rp::RpOptions{.ts = 10, .tg = 20, .checkIntermediateStates = true});
    alice.sync(repo.snapshot(), clock.now());

    // t1: X logs an oversized child Y (10.0.0.0/12 > X's /16).
    clock.advance(1);
    const PublicKey yKey = Signer::generate(seed ^ 0x5a5a, 4).publicKey();
    x.unsafeIssueOversizedChild("y", yKey, ResourceSet::ofPrefixes({pfx("10.0.0.0/12")}), repo,
                                clock.now());
    alice.sync(repo.snapshot(), clock.now());

    CounterexampleResult out;
    out.alarmsWithIntermediateChecks = alice.alarms().ofType(rp::AlarmType::ChildTooBroad).size();
    // A relying party whose first sync happens after X gets broadened sees
    // Y as valid and never alarms — the mirror world the rule prevents.
    clock.advance(1);
    root.broadenChild("x", ResourceSet::ofPrefixes({pfx("10.0.0.0/12")}), repo, clock.now());
    rp::RelyingParty bob("bob", {root.cert()},
                         rp::RpOptions{.ts = 10, .tg = 20, .checkIntermediateStates = true});
    bob.sync(repo.snapshot(), clock.now());
    out.alarmsWithoutIntermediateChecks =
        bob.alarms().ofType(rp::AlarmType::ChildTooBroad).size();
    out.alarms = alice.alarms().all();
    return out;
}

}  // namespace rpkic::sim
