// Multi-RP fleet with Byzantine output consensus (ROADMAP item 2).
//
// Runs N relying parties in-process over divergent repository views and
// reduces their per-epoch outputs to one quorum-backed VRP set:
//
//  * every member is a full RelyingParty + SyncEngine, persisted through
//    its own DurableStore (MemVfs-backed, crash-injectable), syncing one
//    round per fleet epoch;
//  * divergence comes from the member's *feed*: crashed members die
//    mid-commit and later recover from their store; stalled members sit
//    behind a ChaosSource whose FaultPlan (seeded via deriveMemberSeed)
//    pins their points Stalloris-style; mirror-fed members are re-homed
//    onto a second RandomScheduleDriver that replays the same seed and
//    then forks — a legitimately-signed divergent world (paper §5.4's
//    mirror-world adversary, no broken signatures needed);
//  * votes travel over a MessageBus with injectable loss/delay/corruption/
//    partition; the aggregator runs a ConsensusTracker and the fleet
//    raises quorum-attributed Table-7 alarms from its verdicts;
//  * member syncs fan out on an rc::parallel pool; every consensus-visible
//    artifact is reassembled in member order, so the transcript is
//    byte-identical at every thread count.
//
// Invariants (extending the chaos soak's I1-I9; see docs/FLEET.md):
//   I10  with at most members - quorum faulty members, every epoch that
//        produces an output produces the fault-free twin's exact VRP set
//        (byte-equal canonical serialization);
//   I11  every verdict names a configured-faulty member with its
//        configured fault class (soundness), and every configured faulty
//        member is attributed at least once (completeness). Checked only
//        when no link faults are configured — under partition the quorum
//        legitimately cannot tell a lost vote from a crashed member.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/bus.hpp"
#include "fleet/consensus.hpp"
#include "fleet/transcript.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/serve/introspect.hpp"
#include "rp/alarms.hpp"
#include "util/parallel.hpp"

namespace rpkic::fleet {

/// Which fault a fleet member is configured to suffer, and when.
/// Text form "member:kind[:from[:len]]" with kind in {crash, stall,
/// mirror}, e.g. "1:crash:5:6,3:mirror:4" for --faulty-set.
struct MemberFaultSpec {
    static constexpr std::uint32_t kToEnd = 0xffffffffu;

    std::uint32_t member = 0;
    MemberFaultClass cls = MemberFaultClass::Crashed;
    std::uint64_t fromEpoch = 0;
    std::uint32_t epochs = kToEnd;  ///< crash: epochs until restart; others: fault window

    bool activeAt(std::uint64_t e) const {
        return e >= fromEpoch && (epochs == kToEnd || e - fromEpoch < epochs);
    }

    static MemberFaultSpec parse(std::string_view spec);
    /// Parses a comma-separated list ("" = none).
    static std::vector<MemberFaultSpec> parseSet(std::string_view set);

    bool operator==(const MemberFaultSpec&) const = default;
};

struct FleetConfig {
    std::uint64_t seed = 1;
    std::uint32_t members = 5;
    std::uint32_t quorum = 3;
    std::uint64_t epochs = 24;
    /// Retries after the first attempt (SyncPolicy.maxAttempts = budget+1).
    std::uint32_t retryBudget = 2;
    std::vector<MemberFaultSpec> faulty;
    std::vector<LinkFault> linkFaults;
    /// Metrics registry (rc_fleet_* plus every member's rc_rp_*/rc_sync_*/
    /// rc_store_* families). nullptr = a registry local to the run.
    obs::Registry* registry = nullptr;
    /// Pool the member syncs fan out on. nullptr = rc::parallel::defaultPool().
    rc::parallel::Pool* pool = nullptr;
    /// Flight recorder for the run. nullptr = run-local (see
    /// SoakConfig::recorder). Parallel-phase hooks (member store commits,
    /// member alarms) land in per-member recorders that are drained into
    /// this one in member order after each epoch, so the event stream is
    /// byte-identical at every pool size.
    obs::FlightRecorder* recorder = nullptr;
    /// Live /statusz rows (epoch, outcome, per-member verdict/store rows)
    /// under "fleet/seed-<seed>/...". nullptr disables publication.
    obs::StatusBoard* status = nullptr;
};

struct FleetStats {
    std::uint64_t epochs = 0;
    std::uint64_t outputEpochs = 0;     ///< epochs that produced an output
    std::uint64_t unanimousEpochs = 0;
    std::uint64_t noQuorumEpochs = 0;
    std::uint64_t votesCast = 0;
    std::uint64_t votesRejected = 0;    ///< malformed payloads at the aggregator
    std::uint64_t votesStale = 0;       ///< delayed past their epoch
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;         ///< durable-store recoveries that rejoined
    std::uint64_t verdictsCrashed = 0;
    std::uint64_t verdictsStalled = 0;
    std::uint64_t verdictsMirrorFed = 0;
    std::uint64_t messagesSent = 0;
    std::uint64_t messagesDelivered = 0;
    std::uint64_t messagesLost = 0;
    std::uint64_t messagesDelayed = 0;
    std::uint64_t messagesCorrupted = 0;
    std::size_t finalOutputRoas = 0;
    std::size_t twinFinalRoas = 0;
};

struct FleetResult {
    std::uint64_t seed = 0;
    bool passed = false;
    std::vector<std::string> violations;  ///< empty iff passed
    FleetTranscript transcript;
    FleetStats stats;
    /// Fleet-level alarms (quorum verdicts, no-quorum withholds, malformed
    /// votes) mapped onto the Table-7 taxonomy.
    std::vector<rp::Alarm> alarms;
    /// Postmortem bundles captured when I10/I11 (or a member sync
    /// invariant) failed. Deterministic bytes per seed at any pool size.
    std::vector<obs::CapturedBundle> postmortems;
};

/// Runs one fleet experiment. Deterministic from cfg (byte-identical
/// transcript at every pool size).
FleetResult runFleet(const FleetConfig& cfg);

}  // namespace rpkic::fleet
