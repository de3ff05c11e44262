// Multi-party simulation driver for the redesigned RPKI.
//
// Builds a small authority hierarchy and plays randomized schedules of
// legal operations (ROA churn, broadening, consensual narrowing and
// revocation, key rollover) interleaved with adversarial ones (unilateral
// revocation/narrowing, oversized children). Relying parties sync against
// the evolving repository; the theorem oracles in tests/ assert that
// Theorem 5.1-5.3 guarantees hold on every schedule.
//
// Also provides the scripted attacks of §5.6 (Counterexamples 1 and 2).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "consent/authority.hpp"
#include "rp/relying_party.hpp"
#include "util/rng.hpp"

namespace rpkic::sim {

struct OpLogEntry {
    Time at = 0;
    std::string description;
    bool adversarial = false;
    /// RC URIs whacked without consent by this op ("victims" for the
    /// Theorem 5.1 oracle).
    std::vector<std::string> unconsentedVictims;
};

struct DriverConfig {
    std::uint64_t seed = 1;
    consent::AuthorityOptions authority{.ts = 4, .signerHeight = 6, .manifestLifetime = 50};
    double adversarialProbability = 0.15;
};

/// Drives a three-level hierarchy (rir -> {isp1, isp2} -> {cust1 under
/// isp1}) through random op schedules.
class RandomScheduleDriver {
public:
    explicit RandomScheduleDriver(DriverConfig config);

    /// Performs one randomly chosen operation at `now`, publishing into the
    /// repository. Returns what happened.
    const OpLogEntry& step(Time now);

    Repository& repo() { return repo_; }
    consent::AuthorityDirectory& directory() { return dir_; }
    const std::vector<OpLogEntry>& log() const { return log_; }
    std::vector<ResourceCert> trustAnchors() const;

private:
    consent::Authority* randomLiveAuthority(bool allowRoot);
    void record(Time now, std::string description, bool adversarial,
                std::vector<std::string> victims = {});
    /// Advances an in-flight key rollover (step 2 / step 3 once ts has
    /// elapsed). Returns true if it consumed this tick.
    bool continueRollover(Time now);

    struct RolloverInFlight {
        std::string parent;
        std::string child;
        int phase = 1;  // 1 = step1 done, 2 = step2 done
        Time lastStepAt = 0;
    };

    DriverConfig config_;
    Rng rng_;
    Repository repo_;
    consent::AuthorityDirectory dir_;
    std::vector<OpLogEntry> log_;
    int roaCounter_ = 0;
    int childCounter_ = 0;
    std::optional<RolloverInFlight> rollover_;
};

// ---------------------------------------------------------------------------
// Scripted attacks from §5.6.

struct CounterexampleResult {
    /// Alarms raised by a relying party running the FULL §5.4 procedures.
    std::size_t alarmsWithIntermediateChecks = 0;
    /// Alarms raised by a naive relying party that diffs only its previous
    /// and current states (no intermediate-state reconstruction).
    std::size_t alarmsWithoutIntermediateChecks = 0;
    /// Alarm log of the full relying party (for inspection).
    std::vector<rp::Alarm> alarms;
};

/// Counterexample 1: authority X alternates a child RC between Y and a
/// broadened Y'; Alice syncs only at odd steps. Without intermediate-state
/// checking she never notices the un-consented narrowing Y' -> Y.
CounterexampleResult runCounterexample1(std::uint64_t seed);

/// Counterexample 2: X logs an oversized (invalid) child; the manifest
/// "logs an invalid object" and must trigger an alarm even though the
/// object later becomes valid when X is broadened.
CounterexampleResult runCounterexample2(std::uint64_t seed);

}  // namespace rpkic::sim
