// The attack zoo: semantic adversary scenario packs (ROADMAP item 3).
//
// The chaos engine (src/rpki/chaos.*) models *delivery* faults — drops,
// corruption, stale serving. The packs here model the *semantic* attacks
// catalogued by the post-2014 RP-security literature (CURE, "The Fault in
// Our Drafts", Stalloris): each ScenarioPack scripts one attack class
// against the authority/repository stream and ships with a PackOracle —
// the exact Table-7 alarm classes, accountability verdicts, probe
// rejections, and fleet attributions the run MUST produce. No more, no
// fewer: an alarm outside the oracle is a failure too, so every pack
// doubles as a false-positive guard.
//
// Determinism contract: a pack is a pure function of (name, seed, rounds).
// Delivery faults it schedules land in the run's FaultPlan (replayable via
// `rpkic-soak --plan`); authority mutations and mirror-world overlays are
// not expressible as faults, so the plan carries the pack *name*
// (FaultPlan::pack) and replay re-runs the pack's script with fault
// scheduling suppressed — byte-identical either way.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "consent/authority.hpp"
#include "fleet/consensus.hpp"
#include "rp/alarms.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"

namespace rpkic::adversary {

// ---------------------------------------------------------------------------
// Oracles

/// One required alarm pattern: at least `minCount` alarms of `type` with
/// this accountability whose victim/perpetrator contain the given
/// substrings ("" matches anything).
struct AlarmExpectation {
    rp::AlarmType type = rp::AlarmType::MissingInformation;
    bool accountable = false;
    std::uint64_t minCount = 1;
    std::string victimContains;
    std::string perpetratorContains;
};

/// An alarm shape that is allowed (attack aftermath) without being
/// required. Anything matching neither a requirement nor an allowance is
/// spurious.
struct ToleratedAlarm {
    rp::AlarmType type = rp::AlarmType::MissingInformation;
    bool accountable = false;
};

/// A required engine-probe rejection (the transport-level fingerprint of
/// the attack, e.g. manifest-undecodable for an oversized blob).
struct RejectionExpectation {
    rp::FetchOutcome outcome = rp::FetchOutcome::Unreachable;
    std::uint64_t minCount = 1;
};

/// The full expected-alarm contract of one pack run, built in code by
/// each pack and judged by diffOracle().
struct PackOracle {
    std::string pack;
    std::vector<AlarmExpectation> requiredAlarms;
    std::vector<ToleratedAlarm> toleratedAlarms;
    std::vector<RejectionExpectation> requiredRejections;
    /// Exact-match: the run must end with (no) quarantined point.
    bool expectQuarantine = false;
    /// When set, the fleet's consensus must attribute the chaotic member
    /// with exactly `attribution` at least once; observed verdict classes
    /// outside {attribution} ∪ toleratedVerdicts are spurious.
    bool expectAttribution = false;
    fleet::MemberFaultClass attribution = fleet::MemberFaultClass::None;
    std::vector<fleet::MemberFaultClass> toleratedVerdicts;
};

/// What a pack run actually produced, reduced to what oracles judge.
struct RealizedRun {
    std::vector<rp::Alarm> alarms;
    std::map<rp::FetchOutcome, std::uint64_t> rejections;
    bool quarantined = false;
    /// Chaotic member's verdict classes, first-seen order, deduplicated.
    std::vector<fleet::MemberFaultClass> verdictClasses;
};

/// The oracle verdict: `missing` lists unmet requirements (I12: the attack
/// was not detected / not attributed — I13), `spurious` lists realized
/// alarms or verdicts the oracle does not sanction (false positives).
struct OracleDiff {
    std::vector<std::string> missing;
    std::vector<std::string> spurious;

    bool clean() const { return missing.empty() && spurious.empty(); }
};

OracleDiff diffOracle(const PackOracle& oracle, const RealizedRun& run);

// ---------------------------------------------------------------------------
// Packs

struct PackInfo {
    std::string name;       ///< stable identifier ("oversized-object", ...)
    std::string title;      ///< one-line human description
    std::string threatRef;  ///< literature class (CURE / Drafts / Stalloris)
};

/// The world one pack run perturbs. The runner owns everything; the pack
/// scripts against it once per round (after the benign churn, before the
/// relying parties sync).
struct PackWorld {
    consent::AuthorityDirectory& dir;
    Repository& repo;        ///< the honest world every twin syncs from
    Repository& attackRepo;  ///< side repository mirror forks publish into
    ChaosSource& chaos;
    Rng& rng;  ///< pack-private stream, derived from the run seed
    std::uint64_t seed = 0;
    std::uint32_t rounds = 0;
    std::uint64_t round = 0;
    Time now = 0;
    /// Plan replay: the plan already carries every generated fault, so
    /// scheduleFault() is suppressed (overlays are re-derived either way).
    bool replaying = false;
    /// Authorities the runner must NOT heartbeat-refresh this round (packs
    /// add names mid-rollover: a Normal manifest would break the
    /// choreography).
    std::set<std::string> suspendRefresh;

    consent::Authority& get(const std::string& name) { return dir.get(name); }
    void scheduleFault(Fault f) {
        if (!replaying) chaos.addFault(std::move(f));
    }
    void overlayPoint(const std::string& pointUri, std::uint64_t r, FileMap files) {
        chaos.setOverlay(pointUri, r, std::move(files));
    }
};

/// One semantic attack class. Stateless across runs (makePack returns a
/// fresh instance); may keep per-run state across onRound calls.
class ScenarioPack {
public:
    virtual ~ScenarioPack() = default;

    virtual const PackInfo& info() const = 0;
    virtual PackOracle oracle() const = 0;

    /// Perturbs the world for `w.round`. Called once per round, after the
    /// runner's benign churn and before the sync. Must be deterministic in
    /// (w.seed, w.round) — no wall clock, no global state.
    virtual void onRound(PackWorld& w) = 0;

    /// Canonical TLV corpus seed for fuzz_tlv: one encoded object shaped
    /// like this pack's attack (gen_corpus writes it as pack_<name>.bin).
    virtual Bytes tlvSeed() const = 0;

    /// Canonical opcode program for fuzz_manifest_chain, exercising the
    /// chain shape this pack attacks.
    virtual Bytes chainProgramSeed() const = 0;
};

/// Every shipped pack name, catalogue order ("calm" last — the fault-free
/// false-positive control).
const std::vector<std::string>& packNames();

/// Instantiates a pack by name. Throws UsageError on unknown names.
std::unique_ptr<ScenarioPack> makePack(std::string_view name);

/// Expands "all" or a comma-separated list into validated pack names.
std::vector<std::string> resolvePackList(std::string_view spec);

}  // namespace rpkic::adversary
