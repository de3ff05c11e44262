#include "adversary/pack.hpp"

#include <algorithm>
#include <sstream>

#include "crypto/sha256.hpp"
#include "crypto/xmss.hpp"
#include "rpki/objects.hpp"
#include "util/errors.hpp"

namespace rpkic::adversary {

using consent::Authority;
using fleet::MemberFaultClass;
using rp::AlarmType;
using rp::FetchOutcome;

// ===========================================================================
// Oracle diff

namespace {

bool alarmMatches(const AlarmExpectation& e, const rp::Alarm& a) {
    return a.type == e.type && a.accountable == e.accountable &&
           (e.victimContains.empty() || a.victim.find(e.victimContains) != std::string::npos) &&
           (e.perpetratorContains.empty() ||
            a.perpetrator.find(e.perpetratorContains) != std::string::npos);
}

}  // namespace

OracleDiff diffOracle(const PackOracle& oracle, const RealizedRun& run) {
    OracleDiff diff;

    // I12 (detection): every required alarm pattern must be realized.
    for (const AlarmExpectation& e : oracle.requiredAlarms) {
        std::uint64_t got = 0;
        for (const rp::Alarm& a : run.alarms) {
            if (alarmMatches(e, a)) ++got;
        }
        if (got < e.minCount) {
            std::ostringstream os;
            os << "required alarm class=" << rp::toString(e.type)
               << " accountable=" << (e.accountable ? "yes" : "no");
            if (!e.victimContains.empty()) os << " victim~" << e.victimContains;
            if (!e.perpetratorContains.empty()) os << " perpetrator~" << e.perpetratorContains;
            os << ": got " << got << " < " << e.minCount;
            diff.missing.push_back(os.str());
        }
    }

    // False-positive guard: every realized alarm must be sanctioned.
    for (const rp::Alarm& a : run.alarms) {
        bool sanctioned = false;
        for (const AlarmExpectation& e : oracle.requiredAlarms) {
            if (alarmMatches(e, a)) {
                sanctioned = true;
                break;
            }
        }
        for (const ToleratedAlarm& t : oracle.toleratedAlarms) {
            if (sanctioned) break;
            if (a.type == t.type && a.accountable == t.accountable) sanctioned = true;
        }
        if (!sanctioned) diff.spurious.push_back("unexpected alarm: " + a.str());
    }

    for (const RejectionExpectation& r : oracle.requiredRejections) {
        const auto it = run.rejections.find(r.outcome);
        const std::uint64_t got = it == run.rejections.end() ? 0 : it->second;
        if (got < r.minCount) {
            std::ostringstream os;
            os << "required probe rejection outcome=" << rp::toString(r.outcome) << ": got "
               << got << " < " << r.minCount;
            diff.missing.push_back(os.str());
        }
    }

    if (oracle.expectQuarantine && !run.quarantined) {
        diff.missing.push_back("expected a quarantined point; none was");
    } else if (!oracle.expectQuarantine && run.quarantined) {
        diff.spurious.push_back("a point was quarantined; the oracle expects none");
    }

    // I13 (attribution): the fleet's verdict classes for the chaotic member.
    if (oracle.expectAttribution) {
        const bool seen = std::find(run.verdictClasses.begin(), run.verdictClasses.end(),
                                    oracle.attribution) != run.verdictClasses.end();
        if (!seen) {
            diff.missing.push_back("expected fleet attribution class=" +
                                   std::string(fleet::toString(oracle.attribution)));
        }
    }
    for (const MemberFaultClass c : run.verdictClasses) {
        const bool expected = oracle.expectAttribution && c == oracle.attribution;
        const bool tolerated = std::find(oracle.toleratedVerdicts.begin(),
                                         oracle.toleratedVerdicts.end(),
                                         c) != oracle.toleratedVerdicts.end();
        if (!expected && !tolerated) {
            diff.spurious.push_back("unexpected fleet verdict class=" +
                                    std::string(fleet::toString(c)));
        }
    }
    return diff;
}

// ===========================================================================
// The packs

namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

std::string pointOf(PackWorld& w, const std::string& name) {
    return w.get(name).pubPointUri();
}

/// CURE fetcher-robustness class: oversized garbage blobs replace first the
/// manifest (undecodable) and later a logged ROA (hash mismatch), while an
/// injected never-logged junk file runs the whole time as the built-in
/// false-positive probe — it must trigger nothing.
class OversizedObjectPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{
            "oversized-object",
            "oversized/malformed blobs replace logged objects; junk file injected",
            "CURE: RP validation robustness (oversized and malformed objects)"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "oversized-object";
        o.requiredAlarms.push_back(
            {AlarmType::MissingInformation, false, 2, "isp1", ""});
        o.toleratedAlarms.push_back({AlarmType::MissingInformation, false});
        o.requiredRejections.push_back({FetchOutcome::ManifestUndecodable, 1});
        o.requiredRejections.push_back({FetchOutcome::LoggedObjectMismatch, 1});
        o.expectAttribution = true;
        o.attribution = MemberFaultClass::Stalled;
        return o;
    }

    void onRound(PackWorld& w) override {
        const std::string point = pointOf(w, "isp1");
        if (w.round == 4) {
            // Junk injection window: wide, and silent by design.
            w.scheduleFault({FaultKind::InjectJunk, point, "zz-junk.bin", 4,
                             static_cast<std::uint32_t>(w.rounds - 8), Fault::kAllAttempts,
                             65536});
        }
        if (w.round == 6) {
            w.scheduleFault({FaultKind::OversizedObject, point, kManifestName, 6, 2,
                             Fault::kAllAttempts, 262144});
        }
        if (w.round == 12) {
            w.scheduleFault({FaultKind::OversizedObject, point, "isp1-anchor.roa", 12, 2,
                             Fault::kAllAttempts, 262144});
        }
    }

    Bytes tlvSeed() const override { return adversarialGarbage(0xA11ACEDull, 4096); }

    Bytes chainProgramSeed() const override { return {7, 1, 2, 0, 31}; }
};

/// Pathological manifest graphs: an honest burst forces deep-chain
/// reconstruction (no alarm), then a graft rewires one preserved manifest
/// into a cycle and a drop cuts the chain — both invisible to the fetch
/// probe (preserved manifests are published but not logged), so only the
/// relying party's horizontal hash-chain walk can catch them.
class ManifestGraphPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{
            "manifest-graph",
            "deep chains, grafted cycles, and cut preserved-manifest chains",
            "Fault in Our Drafts: pathological manifest graphs"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "manifest-graph";
        o.requiredAlarms.push_back(
            {AlarmType::MissingInformation, false, 2, "isp1", ""});
        o.toleratedAlarms.push_back({AlarmType::MissingInformation, false});
        o.requiredRejections.push_back({FetchOutcome::Unreachable, 2});
        o.expectAttribution = true;
        o.attribution = MemberFaultClass::Stalled;
        return o;
    }

    void onRound(PackWorld& w) override {
        Authority& isp1 = w.get("isp1");
        const std::string point = isp1.pubPointUri();
        if (w.round == 5) {
            // Honest burst: four extra manifest updates in one round. The
            // relying party must reconstruct the whole chain — no alarm.
            for (int k = 0; k < 4; ++k) {
                isp1.issueRoa("burst" + std::to_string(k), static_cast<Asn>(65100 + k),
                              {{pfx("10.64.0.0/12"), 24}}, w.repo, w.now);
            }
        }
        if (w.round == 9) {
            // Outage r10-11 while the world advances, then a graft: the
            // preserved manifest M+2 gets M+1's bytes, so the catch-up walk
            // at r12 meets a cycle instead of the chain.
            const std::uint64_t m = isp1.manifestNumber();
            w.scheduleFault({FaultKind::DropPoint, point, "", 10, 2, Fault::kAllAttempts, 0});
            w.scheduleFault({FaultKind::ChainGraft, point, preservedManifestName(m + 2), 12, 2,
                             Fault::kAllAttempts, m + 1});
        }
        if (w.round == 15) {
            // Same shape, cutting instead of grafting: the preserved link
            // needed for catch-up is simply gone.
            const std::uint64_t k = isp1.manifestNumber();
            w.scheduleFault({FaultKind::DropPoint, point, "", 16, 1, Fault::kAllAttempts, 0});
            w.scheduleFault({FaultKind::DropFile, point, preservedManifestName(k + 1), 17, 1,
                             Fault::kAllAttempts, 0});
        }
    }

    Bytes tlvSeed() const override {
        Manifest m;
        m.issuerRcUri = "rpki://rir/isp1.cer";
        m.pubPointUri = "rpki://isp1/";
        m.number = 9;
        m.entries = {{"burst0.roa", sha256("burst0"), 5}, {"burst1.roa", sha256("burst1"), 6}};
        m.prevManifestHash = sha256("grafted-predecessor");
        m.parentManifestHash = sha256("parent");
        m.signature = {0x9A, 0x11};
        return m.encode();
    }

    Bytes chainProgramSeed() const override { return {8, 1, 1, 3, 5, 5, 4, 0}; }
};

/// Same-serial content swap: a mirror fork of isp1 (same publication
/// point, same key) publishes a divergent history that is briefly served
/// to the chaotic relying party. Numbers never regress — the probe is
/// blind by design — but the hash window and the §5.4 cross-check see two
/// manifests with one number and two digests: accountable evidence.
class SameSerialSwapPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{
            "same-serial-swap",
            "mirror fork serves same-numbered, different-content manifests",
            "mirror worlds / same-serial swap (paper §5.4, Theorems 5.2-5.3)"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "same-serial-swap";
        o.requiredAlarms.push_back({AlarmType::InvalidSyntax, true, 1, "", "isp1"});
        o.requiredAlarms.push_back({AlarmType::GlobalInconsistency, true, 1, "", "isp1"});
        o.toleratedAlarms.push_back({AlarmType::MissingInformation, false});
        o.toleratedAlarms.push_back({AlarmType::InvalidSyntax, true});
        o.toleratedAlarms.push_back({AlarmType::GlobalInconsistency, true});
        // Aftermath: once the overlays put the fork's manifests into the
        // chaotic relying party's history, later §5.4 exchanges find
        // honest manifests it never obtained — unaccountable by design
        // (Alice cannot prove which side is lying from absence alone).
        o.toleratedAlarms.push_back({AlarmType::GlobalInconsistency, false});
        o.expectAttribution = true;
        o.attribution = MemberFaultClass::MirrorFed;
        o.toleratedVerdicts.push_back(MemberFaultClass::Stalled);
        return o;
    }

    void onRound(PackWorld& w) override {
        Authority& isp1 = w.get("isp1");
        const std::string point = isp1.pubPointUri();
        if (w.round == 8) {
            Authority& fork = isp1.unsafeForkForMirrorWorld();
            fork.issueRoa("evil-swap", static_cast<Asn>(64666), {{pfx("10.0.0.0/10"), 24}},
                          w.attackRepo, w.now);
            const FileMap* forked = w.attackRepo.point(point);
            if (forked != nullptr) w.overlayPoint(point, 8, *forked);
        }
        if (w.round == 9) {
            Authority& fork = w.get("isp1#mirror");
            fork.refreshManifest(w.attackRepo, w.now);
            const FileMap* forked = w.attackRepo.point(point);
            if (forked != nullptr) w.overlayPoint(point, 9, *forked);
        }
    }

    Bytes tlvSeed() const override {
        // The swapped twin of a manifest: same number a relying party has
        // seen before, different body.
        Manifest m;
        m.issuerRcUri = "rpki://rir/isp1.cer";
        m.pubPointUri = "rpki://isp1/";
        m.number = 7;
        m.entries = {{"evil-swap.roa", sha256("evil"), 7}};
        m.prevManifestHash = sha256("honest-number-6");
        m.parentManifestHash = sha256("parent");
        m.signature = {0x5A, 0x4B};
        return m.encode();
    }

    Bytes chainProgramSeed() const override { return {6, 2, 3, 1, 1, 3, 2, 2}; }
};

/// Rollover abuse: a full honest Appendix-A rollover for cust1, then a
/// stale-but-valid replay of the pre-rollover (old-key) state — refused by
/// the Stalloris regression floor — and finally a bogus post-rollover
/// manifest naming a successor the parent never logged (Check1).
class RolloverReplayPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{
            "rollover-replay",
            "honest rollover, then old-key state replay and a bogus post-rollover",
            "rollover abuse: replaying stale-but-valid certificates (Appendix A/B)"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "rollover-replay";
        o.requiredAlarms.push_back({AlarmType::BadKeyRollover, true, 1, "cust1", ""});
        o.requiredAlarms.push_back(
            {AlarmType::MissingInformation, false, 1, "cust1", ""});
        o.toleratedAlarms.push_back({AlarmType::MissingInformation, false});
        o.toleratedAlarms.push_back({AlarmType::BadKeyRollover, true});
        o.requiredRejections.push_back({FetchOutcome::Regressed, 2});
        o.expectAttribution = true;
        o.attribution = MemberFaultClass::Stalled;
        return o;
    }

    void onRound(PackWorld& w) override {
        Authority& cust1 = w.get("cust1");
        Authority& isp1 = w.get("isp1");
        const std::string point = cust1.pubPointUri();
        if (w.round == 4) {
            cust1.stageNewKey(w.repo, w.now);
            isp1.rolloverStep1IssueSuccessor("cust1", w.repo, w.now);
            w.suspendRefresh.insert("cust1");
        }
        if (w.round == 8) cust1.rolloverStep2Switch(w.repo, w.now);
        if (w.round == 12) {
            isp1.rolloverStep3Finish("cust1", w.repo, w.now);
            w.suspendRefresh.erase("cust1");
        }
        if (w.round == 14) {
            // Replay the pre-rollover point state (old key, once valid):
            // the regression floor must refuse it as Regressed, never
            // hand it to the relying party.
            w.scheduleFault({FaultKind::ServeStale, point, "", 15, 2, Fault::kAllAttempts, 7});
        }
        if (w.round == w.rounds - 4) {
            cust1.unsafeBogusPostRollover(w.repo, w.now);
            // Freeze cust1 so the bogus manifest is what every remaining
            // round sees (bounded, deterministic aftermath).
            w.suspendRefresh.insert("cust1");
        }
    }

    Bytes tlvSeed() const override {
        Manifest m;
        m.issuerRcUri = "rpki://isp1/cust1.cer";
        m.pubPointUri = "rpki://cust1/";
        m.number = 13;
        m.prevManifestHash = sha256("pre-rollover");
        m.parentManifestHash = sha256("parent");
        m.tag = ManifestTag::PostRollover;
        m.rolloverTargetUri = "rpki://isp1/cust1-v2.cer";
        m.rolloverTargetRcHash = sha256("never-issued-successor");
        m.signature = {0xB0, 0x60};
        return m.encode();
    }

    Bytes chainProgramSeed() const override { return {5, 3, 4, 2, 8, 0, 1, 1}; }
};

/// Stalloris-style drain: one point pinned to an ever-staler state for 8
/// rounds (quarantine must engage: a sustained staller cannot keep
/// consuming the full retry budget) while a second point flaps.
class StallorisDrainPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{
            "stalloris-drain",
            "sustained stale pinning drains one point while another flaps",
            "Stalloris: slow/stalling repository resource exhaustion"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "stalloris-drain";
        o.requiredAlarms.push_back({AlarmType::MissingInformation, false, 3, "", ""});
        o.toleratedAlarms.push_back({AlarmType::MissingInformation, false});
        // The pinned point lags the twin, so §5.4 exchanges surface
        // manifests the chaotic relying party never obtained —
        // unaccountable missing-information-shaped inconsistency.
        o.toleratedAlarms.push_back({AlarmType::GlobalInconsistency, false});
        o.requiredRejections.push_back({FetchOutcome::Regressed, 4});
        o.requiredRejections.push_back({FetchOutcome::Unreachable, 2});
        o.expectQuarantine = true;
        o.expectAttribution = true;
        o.attribution = MemberFaultClass::Stalled;
        return o;
    }

    void onRound(PackWorld& w) override {
        if (w.round == 5) {
            // Phase 1: pin isp1 to its round-5 state. The pinned manifest
            // number equals the engine's regression floor, so the serve is
            // accepted — the silent slow-drip that makes stalling cheap.
            w.scheduleFault({FaultKind::ServeStale, pointOf(w, "isp1"), "", 6, 3,
                             Fault::kAllAttempts, 5});
            // Phase 2, after two honest rounds advance the floor: pin the
            // same relic again. Now every serve is a Regressed rejection,
            // the point fails round after round, and quarantine must
            // engage (a sustained staller cannot keep draining the full
            // retry budget).
            w.scheduleFault({FaultKind::ServeStale, pointOf(w, "isp1"), "", 11, 8,
                             Fault::kAllAttempts, 5});
            w.scheduleFault(
                {FaultKind::Flap, pointOf(w, "isp2"), "", 6, 12, Fault::kAllAttempts, 2});
        }
    }

    Bytes tlvSeed() const override {
        // The pinned relic: a long-stale manifest an honest point would
        // have superseded many times over.
        Manifest m;
        m.issuerRcUri = "rpki://rir/isp1.cer";
        m.pubPointUri = "rpki://isp1/";
        m.number = 1;
        m.entries = {{"isp1-anchor.roa", sha256("anchor"), 1}};
        m.signature = {0x57, 0xA1};
        return m.encode();
    }

    Bytes chainProgramSeed() const override { return {8, 1, 5, 6, 0}; }
};

/// The control: no attack at all. The oracle requires silence, so any
/// alarm, rejection, quarantine, or verdict the machinery produces in a
/// calm world is a detected false positive (satellite guard for I12).
class CalmPack final : public ScenarioPack {
public:
    const PackInfo& info() const override {
        static const PackInfo kInfo{"calm", "fault-free control run; the oracle requires silence",
                                    "false-positive guard (no threat model)"};
        return kInfo;
    }

    PackOracle oracle() const override {
        PackOracle o;
        o.pack = "calm";
        return o;  // empty: anything observed is spurious
    }

    void onRound(PackWorld& w) override { (void)w; }

    Bytes tlvSeed() const override {
        Manifest m;
        m.issuerRcUri = "rpki://rir/rir.cer";
        m.pubPointUri = "rpki://rir/";
        m.number = 1;
        m.signature = {0xCA, 0x1A};
        return m.encode();
    }

    Bytes chainProgramSeed() const override { return {4, 2}; }
};

}  // namespace

const std::vector<std::string>& packNames() {
    static const std::vector<std::string> kNames = {
        "oversized-object", "manifest-graph", "same-serial-swap",
        "rollover-replay",  "stalloris-drain", "calm",
    };
    return kNames;
}

std::unique_ptr<ScenarioPack> makePack(std::string_view name) {
    if (name == "oversized-object") return std::make_unique<OversizedObjectPack>();
    if (name == "manifest-graph") return std::make_unique<ManifestGraphPack>();
    if (name == "same-serial-swap") return std::make_unique<SameSerialSwapPack>();
    if (name == "rollover-replay") return std::make_unique<RolloverReplayPack>();
    if (name == "stalloris-drain") return std::make_unique<StallorisDrainPack>();
    if (name == "calm") return std::make_unique<CalmPack>();
    throw UsageError("unknown adversary pack: " + std::string(name));
}

std::vector<std::string> resolvePackList(std::string_view spec) {
    if (spec == "all") return packNames();
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const auto comma = spec.find(',', pos);
        const std::string_view name =
            spec.substr(pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
        pos = comma == std::string_view::npos ? spec.size() + 1 : comma + 1;
        if (name.empty()) continue;
        makePack(name);  // validates; throws UsageError on unknown names
        out.emplace_back(name);
    }
    if (out.empty()) throw UsageError("empty pack list");
    return out;
}

}  // namespace rpkic::adversary
