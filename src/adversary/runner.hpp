// Pack runner: executes one adversary scenario pack against a fresh world
// and judges the outcome against the pack's oracle (invariants I12/I13).
//
// Structure mirrors the chaos soak (src/sim/chaos_soak.cpp): a scripted
// authority world, a chaotic relying party syncing through a ChaosSource,
// a fault-free twin syncing the honest repository, plus a 3-member
// mini-fleet (the chaotic member against two honest votes) so the oracle
// can also pin the fleet's *attribution* of the attack. Every run is a
// pure function of (pack, seed): the transcript, the plan, and the diff
// are byte-identical across repeats, thread counts, and --plan replays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "adversary/pack.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"

namespace rpkic::adversary {

struct PackRunConfig {
    std::string pack;
    std::uint64_t seed = 1;
    std::uint32_t rounds = 24;       ///< packs assume >= 20
    std::uint32_t retryBudget = 2;   ///< engine retries after the first attempt
    /// nullptr = run-local (repeated runs in one process start from zero).
    obs::Registry* registry = nullptr;
    obs::FlightRecorder* recorder = nullptr;
    /// Test hook (oracle teeth): turns off intermediate-state checking and
    /// the §5.4 cross-check on the chaotic relying party. A pack whose
    /// attack those paths detect must then FAIL its oracle.
    bool disableDetection = false;
    /// Test hook (oracle soundness): judge against this oracle instead of
    /// the pack's own. A deliberately wrong oracle must produce a failure.
    const PackOracle* oracleOverride = nullptr;
};

struct PackRunResult {
    std::string pack;
    std::uint64_t seed = 0;
    bool passed = false;
    PackOracle oracle;   ///< the oracle the run was judged against
    OracleDiff diff;
    RealizedRun realized;
    FaultPlan plan;      ///< replayable: carries pack= and every scheduled fault
    std::uint64_t faultApplications = 0;
    std::uint64_t overlayApplications = 0;
    /// One line per round plus a result line and any diff lines;
    /// byte-identical per (pack, seed) at every thread count.
    std::string transcript;
    std::vector<obs::CapturedBundle> postmortems;  ///< captured on failure
};

/// Runs one pack at one seed, generating the fault plan as the script asks.
PackRunResult runPack(const PackRunConfig& cfg);

/// Replays a pack plan (`plan.pack` must be set): seed/rounds/retry come
/// from the plan, delivery faults are taken from it verbatim, and the
/// pack's authority script and overlays are re-derived deterministically.
PackRunResult runPackWithPlan(const FaultPlan& plan, const PackRunConfig& overrides);

}  // namespace rpkic::adversary
