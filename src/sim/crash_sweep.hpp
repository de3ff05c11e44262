// Exhaustive crash-point sweep over the durable relying-party store.
//
// The durable store's contract (rp/durable_store.hpp) is that recovery
// after a crash at ANY instruction yields exactly the pre-transaction or
// the post-transaction committed state — never a mixture. An argument to
// that effect lives in docs/DURABILITY.md; this harness *proves* it for a
// concrete workload by enumeration:
//
//  1. Reference run: a relying party syncs `rounds` rounds of a seeded
//     honest world through a SyncEngine with an attached DurableStore on
//     a MemVfs, fault-free. The serialized state each commit persisted is
//     recorded by its meta (= completed-round count), along with the final
//     serialized state, and MemVfs::opCount() enumerates every mutating
//     VFS operation the workload performs.
//
//  2. For every operation index k in [0, opCount): rerun the identical
//     workload on a fresh MemVfs with a crash armed at k. When the crash
//     fires, reopen the store and assert
//       (a) the recovered state (image plus deltas, composed by
//           MemberProcess::restart) serializes byte-identically to one of
//           the reference run's committed states — specifically the one
//           whose meta the store reports (pre- or post- the interrupted
//           transaction, nothing else), and
//       (b) after restoring the relying party from the recovered bytes
//           and resuming (MemberProcess::restart, which also checks the
//           soak's I8 round-trip), the run converges: its final
//           serialized state is byte-identical to the never-crashed
//           reference.
//
// Delivery faults are deliberately absent (the chaos soak owns those);
// the sweep isolates durability. Small rounds/checkpointEvery keep the
// op space tight while still crossing several delta appends and fsyncs
// and several image commits (write-temp, sync, rename).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"

namespace rpkic::sim {

struct SweepConfig {
    std::uint64_t seed = 1;
    /// Simulated sync rounds per run (one commit per round).
    std::uint32_t rounds = 6;
    /// Store checkpoint cadence; small values make the sweep crash inside
    /// image commits, not just delta appends.
    std::uint32_t checkpointEvery = 2;
    /// Driver misbehaviour probability (nonzero worlds exercise recovery
    /// of alarm logs and consent state, not just quiet caches).
    double adversarialProbability = 0.15;
    /// Metrics registry; nullptr = run-local (see SoakConfig::registry).
    obs::Registry* registry = nullptr;
    /// Flight recorder; nullptr = run-local (see SoakConfig::recorder).
    obs::FlightRecorder* recorder = nullptr;
};

struct SweepResult {
    std::uint64_t crashPoints = 0;    ///< VFS operations enumerated
    std::uint64_t crashesFired = 0;   ///< injected crashes observed
    std::uint64_t recoveredPre = 0;   ///< recoveries to the pre-crash commit
    std::uint64_t recoveredPost = 0;  ///< the interrupted commit survived a tear
    std::uint64_t recoveredNone = 0;  ///< crash before any commit was durable
    std::uint64_t tornBytes = 0;      ///< WAL tail bytes recovery discarded
    std::uint64_t roundsResumed = 0;  ///< rounds rerun across all reruns
    bool passed = false;
    std::vector<std::string> violations;  ///< empty iff passed
    /// Postmortem bundles captured at invariant violations (capped; the
    /// sweep's realized crashes are the workload, not a trigger).
    std::vector<obs::CapturedBundle> postmortems;
};

/// Runs the reference workload plus one crashed rerun per VFS operation.
SweepResult runCrashSweep(const SweepConfig& cfg);

}  // namespace rpkic::sim
