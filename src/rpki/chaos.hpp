// Deterministic chaos engine for repository delivery (paper §3.2.2).
//
// The paper's threat model for object *delivery* is that a relying party
// cannot distinguish an authority misbehaving from a repository or network
// dropping, corrupting, truncating or stalling its transfer. The ad-hoc
// injectors in repository.hpp mutate one snapshot by hand; this header
// turns them into a reusable subsystem:
//
//  * SnapshotSource — the interface a relying party's sync engine pulls
//    from, at per-publication-point granularity so every fetch attempt
//    can fail (and be retried) independently;
//  * RepositorySource — the honest source, backed by a live Repository;
//  * FaultPlan — a seeded, *serializable* schedule of faults keyed by
//    (publication point, sync round, fetch attempt). Any failing soak run
//    prints its plan; replaying the plan reproduces the identical outcome
//    bit for bit (see tools/rpkic_soak.cpp);
//  * ChaosSource — wraps any SnapshotSource and applies a FaultPlan.
//
// Fault taxonomy (docs/CHAOS.md maps each to a paper threat):
//   drop-file          lossy transfer loses one object
//   corrupt            one bit of one file flips in flight
//   truncate           short read / interrupted transfer (CURE-style)
//   drop-point         publication point unreachable
//   withhold-manifest  repository answers but hides manifest.mft
//   serve-stale        Stalloris-style pinning to an old state
//   flap               point alternates reachable/unreachable
//
// Semantic adversary kinds (the attack zoo, src/adversary/; see
// docs/CHAOS.md "Attack zoo"):
//   oversized-object   file replaced by a seeded garbage blob of param bytes
//   inject-junk        an extra, never-logged file appears at the point
//   chain-graft        a preserved manifest's bytes are swapped for another's
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rpki/repository.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace rpkic {

// ---------------------------------------------------------------------------
// Sources

/// Where a relying party's sync engine pulls repository state from.
/// Granularity is one publication point per fetch attempt: real transports
/// (rsync per module, RRDP per repository) fail per endpoint, and a retry
/// policy is only meaningful if attempts are individually addressable.
class SnapshotSource {
public:
    virtual ~SnapshotSource() = default;

    /// Publication points currently advertised by the source at `round`.
    virtual std::vector<std::string> listPoints(std::uint64_t round) = 0;

    /// One fetch attempt for one publication point. `round` is the sync
    /// round (monotone, engine-assigned), `attempt` the 0-based retry
    /// index within that round. nullopt = point unreachable this attempt.
    virtual std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                              std::uint32_t attempt) = 0;
};

/// The honest source: serves the live Repository verbatim.
class RepositorySource final : public SnapshotSource {
public:
    explicit RepositorySource(const Repository& repo) : repo_(&repo) {}

    std::vector<std::string> listPoints(std::uint64_t round) override;
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override;

private:
    const Repository* repo_;
};

// ---------------------------------------------------------------------------
// Fault plans

enum class FaultKind : std::uint8_t {
    DropFile = 0,
    Corrupt = 1,
    Truncate = 2,
    DropPoint = 3,
    WithholdManifest = 4,
    ServeStale = 5,
    Flap = 6,
    OversizedObject = 7,
    InjectJunk = 8,
    ChainGraft = 9,
    /// Sentinel: highest valid kind. Every enumeration / range check keys
    /// off this, so adding a kind above cannot silently decode as invalid
    /// or be skipped when iterating the taxonomy.
    kLast = ChainGraft,
};

std::string_view toString(FaultKind k);
/// Inverse of toString. Throws ParseError on unknown names.
FaultKind faultKindFromString(std::string_view s);

/// One scheduled fault. A fault is active for sync rounds
/// [round, round + rounds) and, within each active round, affects fetch
/// attempts [0, attempts). `attempts = kAllAttempts` makes the fault
/// unabsorbable by retries; `attempts = 1` models a transient glitch the
/// first retry heals.
struct Fault {
    static constexpr std::uint32_t kAllAttempts = 0xffffffffu;

    FaultKind kind = FaultKind::DropFile;
    std::string pointUri;
    std::string filename;          ///< file-scoped kinds only ("" otherwise)
    std::uint64_t round = 0;       ///< first affected sync round
    std::uint32_t rounds = 1;      ///< consecutive affected rounds
    std::uint32_t attempts = kAllAttempts;  ///< leading attempts affected per round
    /// Kind-specific parameter:
    ///   Corrupt          bit index to flip (modulo file size in bits)
    ///   Truncate         bytes to keep (clamped to the file size)
    ///   ServeStale       round whose state the point is pinned to
    ///   Flap             half-period in rounds (down param, up param, ...)
    ///   OversizedObject  blob size in bytes (also seeds the garbage stream)
    ///   InjectJunk       junk size in bytes (also seeds the garbage stream)
    ///   ChainGraft       manifest number whose preserved bytes are grafted
    ///                    over `filename` (absent source = file dropped)
    std::uint64_t param = 0;

    bool activeAt(std::uint64_t r, std::uint32_t attempt) const {
        return r >= round && r - round < rounds && attempt < attempts;
    }

    /// One-line human/machine-readable form, e.g.
    ///   "fault kind=corrupt point=rpki://isp1/ file=r1.roa round=3 rounds=1 attempts=all param=17"
    std::string str() const;

    bool operator==(const Fault&) const = default;
};

/// A complete, reproducible chaos schedule. Carries enough of the
/// generating configuration (driver seed, round count, retry budget,
/// adversarial probability, stall horizon) that `rpkic-soak --plan FILE`
/// re-runs the identical experiment.
struct FaultPlan {
    std::uint64_t seed = 0;            ///< seed of the generating sweep
    std::uint64_t rounds = 0;          ///< sync rounds of the run
    std::uint32_t retryBudget = 2;     ///< retries after the first attempt
    std::uint32_t adversarialPpm = 0;  ///< driver adversarial probability, ppm
    std::uint64_t stallHorizon = 8;    ///< max age (rounds) of a serve-stale pin
    /// Durability-fault extension (PR 5): kill and restart the relying
    /// party "process" every this many rounds, recovering from the durable
    /// store (0 = never). Carried in the plan so `--plan` replays crash
    /// soaks identically.
    std::uint32_t crashEvery = 0;
    /// Attack-zoo extension (PR 10): names the adversary scenario pack that
    /// generated this plan ("" = plain chaos). `rpkic-soak --plan` uses it
    /// to re-run the pack's authority-side script — delivery faults live in
    /// `faults`, but authority mutations and mirror-world overlays are not
    /// serializable as faults, so replay re-derives them from (pack, seed).
    std::string pack;
    std::vector<Fault> faults;

    /// Line-oriented text encoding; round-trips through parse() exactly.
    std::string serialize() const;
    static FaultPlan parse(std::string_view text);

    bool operator==(const FaultPlan&) const = default;
};

/// Derives the FaultPlan seed of one fleet member from the master sweep
/// seed and the member's index (splitmix64-style finalizer over both
/// inputs). Every member of a fleet gets an independent, reproducible
/// fault stream: replaying `--plan` for the whole fleet stays bit-exact,
/// and no two (master, index) pairs alias each other's plans. Index 0 is
/// mixed too — a fleet member never runs on the raw master seed, so a
/// single-RP soak at seed S and fleet member 0 of seed S draw different
/// fault schedules.
std::uint64_t deriveMemberSeed(std::uint64_t masterSeed, std::uint32_t rpIndex);

// ---------------------------------------------------------------------------
// Chaos source

/// Applies a FaultPlan on top of an inner (usually honest) source.
/// Deterministic: given the same inner source evolution and plan, every
/// fetch returns identical bytes. The source records the honest per-round
/// state of each point so serve-stale faults can pin a point to history.
class ChaosSource final : public SnapshotSource {
public:
    ChaosSource(SnapshotSource& inner, FaultPlan plan);

    std::vector<std::string> listPoints(std::uint64_t round) override;
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override;

    const FaultPlan& plan() const { return plan_; }
    /// Appends further faults (used by the soak generator, which schedules
    /// faults round by round as the simulated repository evolves).
    void addFault(Fault f) { plan_.faults.push_back(std::move(f)); }

    /// Number of fault applications so far (one fault hitting 3 attempts
    /// counts 3). Telemetry for soak reports.
    std::uint64_t faultApplications() const { return applications_; }

    /// Serves `files` wholesale for (pointUri, round), before file-level
    /// faults but after unreachability — mirror-world delivery: the point
    /// answers, with an attacker-chosen state. Overlays are not plan
    /// entries; pack generators re-derive them deterministically on replay
    /// (FaultPlan::pack names the generator).
    void setOverlay(const std::string& pointUri, std::uint64_t round, FileMap files);

    /// Overlay applications so far (attempt-granular, like faults).
    std::uint64_t overlayApplications() const { return overlayApplications_; }

private:
    /// Record the honest state of `pointUri` at `round` (first attempt
    /// only) so ServeStale can serve it later.
    void recordHistory(const std::string& pointUri, std::uint64_t round, const FileMap* honest);

    SnapshotSource* inner_;
    FaultPlan plan_;
    std::uint64_t applications_ = 0;
    /// point -> (round -> honest files). nullopt-valued rounds (point
    /// absent upstream) are stored as missing entries.
    std::map<std::string, std::map<std::uint64_t, FileMap>> history_;
    /// (point, round) -> attacker-chosen state served instead of the
    /// honest one (setOverlay).
    std::map<std::pair<std::string, std::uint64_t>, FileMap> overlays_;
    std::uint64_t overlayApplications_ = 0;
};

/// Deterministic garbage stream: `size` bytes derived from `seed` with a
/// splitmix64 expansion. OversizedObject / InjectJunk payloads and the
/// fuzz corpus seeds built from them share this so a plan replays the
/// identical blob bit for bit.
Bytes adversarialGarbage(std::uint64_t seed, std::size_t size);

// --- Legacy single-snapshot injectors (paper §3.2.2) -----------------------
// Kept for tests and one-off experiments; ChaosSource is the schedule-level
// interface built on the same mutations.

/// Removes one file from a snapshot, as a lossy transfer would.
/// Returns false if the file was not present.
bool dropFile(Snapshot& snap, const std::string& pointUri, const std::string& filename);

/// Flips one bit of a file, as in "a third party ... can whack a ROA just
/// by corrupting a single bit". Returns false if the file was not present.
bool corruptFile(Snapshot& snap, const std::string& pointUri, const std::string& filename,
                 std::size_t byteIndex = 0);

/// Truncates a file to `keepBytes` (clamped), modeling a short read /
/// interrupted transfer (the CURE fetcher-robustness class). Returns false
/// if the file was not present or already no longer than keepBytes.
bool truncateFile(Snapshot& snap, const std::string& pointUri, const std::string& filename,
                  std::size_t keepBytes);

/// Replaces one publication point of `snap` with its state from `stale`,
/// modeling a repository that serves outdated data for that point.
bool serveStalePoint(Snapshot& snap, const Snapshot& stale, const std::string& pointUri);

/// What corruptRandomFile actually did — everything needed to replay the
/// exact mutation without re-deriving RNG state.
struct CorruptionReceipt {
    std::string pointUri;
    std::string filename;
    std::size_t byteIndex = 0;  ///< index actually XORed (already reduced mod size)
};

/// Corrupts one random file in the snapshot (for failure-injection sweeps).
/// Byte selection is bias-free (rejection sampling via Rng::nextBelow, not
/// a raw modulo). Returns the receipt, or nullopt if the snapshot is empty.
std::optional<CorruptionReceipt> corruptRandomFile(Snapshot& snap, Rng& rng);

}  // namespace rpkic
