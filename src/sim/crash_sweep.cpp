#include "sim/crash_sweep.hpp"

#include <map>

#include "sim/harness.hpp"

namespace rpkic::sim {

namespace {

using rp::StoreOptions;

constexpr const char* kStateDir = "sweep-state";
/// The engine's default budget (SyncPolicy{}.maxAttempts = 3).
constexpr std::uint32_t kRetryBudget = 2;

/// What the fault-free reference run produced: the state each commit
/// persisted, serialized, by meta (= completed-round count), plus the final
/// serialized state.
struct Reference {
    std::map<std::uint64_t, Bytes> committed;
    Bytes finalState;
    std::uint64_t opCount = 0;
};

Reference runReference(const SweepConfig& cfg, obs::Registry* registry) {
    Reference ref;
    RandomScheduleDriver driver(worldConfig(cfg.seed, cfg.adversarialProbability, cfg.rounds));
    RepositorySource honest(driver.repo());
    MemberProcess alice("sweep", driver.trustAnchors(), honest, kRetryBudget, registry, nullptr);
    const vfs::MemVfs& fs = *alice.attachStore(
        nullptr, kStateDir, StoreOptions{cfg.checkpointEvery, "sweep"}, cfg.seed);

    for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
        const Time now = static_cast<Time>(r);
        if (r > 0) driver.step(now);
        alice.engine().syncRound(now);
        // One commit per round: record what recovery is allowed to return.
        ref.committed[alice.store()->latestMeta()] = alice.rp().serializeState();
    }
    ref.finalState = alice.rp().serializeState();
    ref.opCount = fs.opCount();
    return ref;
}

}  // namespace

SweepResult runCrashSweep(const SweepConfig& cfg) {
    SweepResult result;
    RunContext ctx("sweep", "sweep.run", "run seed=" + std::to_string(cfg.seed), cfg.seed,
                   cfg.registry, cfg.recorder);
    const Reference ref = runReference(cfg, ctx.registry());
    result.crashPoints = ref.opCount;

    // One rerun with a crash armed at VFS op k: "" when recovery returned
    // a committed pre- or post-crash state and the resumed run converged,
    // else what went wrong.
    const auto rerun = [&](std::uint64_t k) -> std::string {
        // Fresh world, fresh filesystem (same seeds: identical behaviour up
        // to the crash), fresh run-local registry (rerun metrics are noise).
        obs::Registry rerunRegistry;
        RandomScheduleDriver driver(worldConfig(cfg.seed, cfg.adversarialProbability, cfg.rounds));
        RepositorySource honest(driver.repo());
        MemberProcess alice("sweep", driver.trustAnchors(), honest, kRetryBudget, &rerunRegistry,
                            nullptr);
        alice.attachStore(nullptr, kStateDir, StoreOptions{cfg.checkpointEvery, "sweep"}, cfg.seed)
            ->armCrashAt(k);
        const rp::DurableStore& store = *alice.store();

        bool crashed = false;
        for (std::uint32_t r = 0; r < cfg.rounds; ++r) {
            const Time now = static_cast<Time>(r);
            if (r > 0) driver.step(now);
            const MemberProcess::SyncOutcome synced = alice.sync(now);
            if (!synced.error.empty()) {
                return "exception escaped round " + std::to_string(r) + ": " + synced.error;
            }
            if (!synced.crashed) continue;
            crashed = true;
            ++result.crashesFired;
            obs::flightRecord(ctx.recorder(), obs::FlightKind::CrashRealized, "sweep",
                              "crash-point=" + std::to_string(k) + " round=" + std::to_string(r));
            // The "process" died at op k: recover from the surviving bytes.
            const MemberProcess::Restart rs = alice.restart();
            if (!rs.ok()) return rs.violation;
            result.tornBytes += rs.recovery.tornBytesDiscarded;

            // (a) pre-or-post: the recovered state (image plus deltas) must
            // serialize byte-identically to the reference commit its meta
            // names, and that meta must bracket the interrupted round.
            const std::uint64_t meta = store.latestMeta();
            if (!rs.restored) {
                if (r != 0) return "no payload recovered after round " + std::to_string(r);
                ++result.recoveredNone;
            } else {
                if (meta != r && meta != r + 1) {
                    return "recovered meta " + std::to_string(meta) +
                           " does not bracket crashed round " + std::to_string(r);
                }
                const auto it = ref.committed.find(meta);
                if (it == ref.committed.end() || !(alice.rp().serializeState() == it->second)) {
                    return "recovered state for meta " + std::to_string(meta) +
                           " is not the reference commit (mixture state?)";
                }
                if (meta == r + 1) {
                    ++result.recoveredPost;
                } else {
                    ++result.recoveredPre;
                }
            }

            // (b) resume: rerun the interrupted round if its commit was lost.
            try {
                while (alice.engine().round() <= r) {
                    ++result.roundsResumed;
                    alice.engine().syncRound(now);
                }
            } catch (const std::exception& e) {
                return std::string("resume threw: ") + e.what();
            }
        }
        if (!crashed) return "armed crash never fired (op space shrank?)";
        // Convergence: the crashed-and-resumed run must end byte-identical
        // to the never-crashed reference.
        if (!(alice.rp().serializeState() == ref.finalState)) {
            return "resumed run diverged from the never-crashed reference";
        }
        return "";
    };

    for (std::uint64_t k = 0; k < ref.opCount; ++k) {
        if (const std::string what = rerun(k); !what.empty()) {
            ctx.violation("crash point " + std::to_string(k) + ": " + what,
                          {{"crash-point", std::to_string(k)}});
        }
    }

    result.violations = std::move(ctx.violations);
    result.postmortems = std::move(ctx.postmortems);
    result.passed = result.violations.empty();
    return result;
}

}  // namespace rpkic::sim
