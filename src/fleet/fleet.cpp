#include "fleet/fleet.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "detector/state_io.hpp"
#include "fleet/textutil.hpp"
#include "sim/harness.hpp"
#include "util/errors.hpp"
#include "util/parse.hpp"

namespace rpkic::fleet {

using rp::RelyingParty;
using sim::MemberProcess;

// ===========================================================================
// MemberFaultSpec text form

namespace {

MemberFaultClass faultSpecClassFromToken(std::string_view s) {
    if (s == "crash") return MemberFaultClass::Crashed;
    if (s == "stall") return MemberFaultClass::Stalled;
    if (s == "mirror") return MemberFaultClass::MirrorFed;
    throw ParseError("unknown member fault kind (want crash|stall|mirror): " + std::string(s));
}

}  // namespace

MemberFaultSpec MemberFaultSpec::parse(std::string_view spec) {
    const auto parts = detail::splitList(spec, ':');
    if (parts.size() < 2 || parts.size() > 4) {
        throw ParseError("member fault spec is not member:kind[:from[:len]]: " + std::string(spec));
    }
    MemberFaultSpec s;
    s.member = parseU32(parts[0], "member");
    s.cls = faultSpecClassFromToken(parts[1]);
    if (parts.size() >= 3) s.fromEpoch = parseU64(parts[2], "from-epoch");
    if (parts.size() == 4) s.epochs = parseU32(parts[3], "len");
    return s;
}

std::vector<MemberFaultSpec> MemberFaultSpec::parseSet(std::string_view set) {
    std::vector<MemberFaultSpec> out;
    if (set.empty()) return out;
    for (std::string_view item : detail::splitList(set, ',')) out.push_back(parse(item));
    return out;
}

// ===========================================================================
// runFleet

namespace {

/// One fleet member's whole stack. Heap-held so the process's references
/// stay stable.
struct Member {
    std::uint32_t index = 0;
    std::uint64_t subSeed = 0;
    MemberFaultSpec spec{.member = 0, .cls = MemberFaultClass::None};  ///< None = honest

    vfs::MemVfs* vfs = nullptr;  ///< the store's crash-injectable filesystem
    /// Parallel-phase flight events (store commits, alarms) land here and
    /// are drained into the run recorder in member order afterwards.
    obs::FlightRecorder recorder;
    std::unique_ptr<ChaosSource> chaos;       // stalled members only
    std::set<std::string> stalledCovered;     // points already given a pin fault
    std::optional<MemberProcess> process;     // relying party + engine + store
    bool crashArmed = false;

    // Per-epoch outputs of the parallel sync phase.
    std::optional<VrpVote> vote;
    std::string stateText;
    RpkiState state;
    std::string failure;  // non-fault exception text, reported as a violation

    std::string name() const { return "member-" + std::to_string(index); }
};

}  // namespace

FleetResult runFleet(const FleetConfig& cfg) {
    if (cfg.members < 1 || cfg.members > 64) {
        throw UsageError("fleet size must be in [1, 64]");
    }
    if (cfg.quorum < 1 || cfg.quorum > cfg.members) {
        throw UsageError("fleet quorum must be in [1, members]");
    }
    std::set<std::uint32_t> seenSpecMembers;
    bool anyMirror = false;
    for (const MemberFaultSpec& s : cfg.faulty) {
        if (s.member >= cfg.members) throw UsageError("faulty-set names member out of range");
        if (!seenSpecMembers.insert(s.member).second) {
            throw UsageError("faulty-set names member " + std::to_string(s.member) + " twice");
        }
        if (s.cls == MemberFaultClass::None) throw UsageError("faulty-set carries class 'none'");
        if (s.cls == MemberFaultClass::MirrorFed) anyMirror = true;
    }

    FleetResult result;
    result.seed = cfg.seed;
    result.transcript.seed = cfg.seed;
    result.transcript.members = cfg.members;
    result.transcript.quorum = cfg.quorum;
    result.transcript.epochs = cfg.epochs;

    rc::parallel::Pool& pool = cfg.pool != nullptr ? *cfg.pool : rc::parallel::defaultPool();
    sim::RunContext ctx("fleet", "fleet.run", "run seed=" + std::to_string(cfg.seed), cfg.seed,
                        cfg.registry, cfg.recorder, cfg.status);
    obs::Registry* registry = ctx.registry();
    obs::FlightRecorder* recorder = ctx.recorder();
    ctx.publish("members", std::to_string(cfg.members));
    ctx.publish("quorum", std::to_string(cfg.quorum));
    ctx.publish("epochs-total", std::to_string(cfg.epochs));
    ctx.publish("state", "running");

    // --- instruments ---------------------------------------------------------
    obs::Gauge& gMembers = registry->gauge("rc_fleet_members", "Configured fleet size");
    gMembers.set(static_cast<std::int64_t>(cfg.members));
    obs::Counter& cEpochsUnanimous = registry->counter(
        "rc_fleet_epochs_total", "Fleet epochs by consensus outcome", {{"outcome", "unanimous"}});
    obs::Counter& cEpochsQuorum = registry->counter("rc_fleet_epochs_total", "",
                                                    {{"outcome", "quorum"}});
    obs::Counter& cEpochsNoQuorum = registry->counter("rc_fleet_epochs_total", "",
                                                      {{"outcome", "no-quorum"}});
    obs::Counter& cVotesRejected = registry->counter(
        "rc_fleet_votes_rejected_total", "Malformed vote payloads rejected by the aggregator");
    obs::Counter& cVotesStale = registry->counter(
        "rc_fleet_votes_stale_total", "Votes delivered after their epoch had closed");
    const auto messagesCounter = [&](const char* event) -> obs::Counter& {
        return registry->counter("rc_fleet_messages_total", "Vote-bus messages by event",
                                 {{"event", event}});
    };
    obs::Counter& cMsgSent = messagesCounter("sent");
    obs::Counter& cMsgDelivered = messagesCounter("delivered");
    obs::Counter& cMsgLost = messagesCounter("lost");
    obs::Counter& cMsgDelayed = messagesCounter("delayed");
    obs::Counter& cMsgCorrupted = messagesCounter("corrupted");
    const auto alarmsCounter = [&](const char* cls) -> obs::Counter& {
        return registry->counter("rc_fleet_alarms_total",
                                 "Fleet-level alarms by attributed fault class", {{"class", cls}});
    };
    obs::Counter& cAlarmCrashed = alarmsCounter("crashed");
    obs::Counter& cAlarmStalled = alarmsCounter("stalled");
    obs::Counter& cAlarmMirror = alarmsCounter("mirror-fed");
    obs::Counter& cAlarmNoQuorum = alarmsCounter("no-quorum");
    obs::Counter& cAlarmMalformed = alarmsCounter("malformed-vote");
    obs::Counter& cCrashes = registry->counter("rc_fleet_crashes_total",
                                               "Member processes killed mid-commit");
    obs::Counter& cRestarts = registry->counter(
        "rc_fleet_restarts_total", "Members rejoined from their durable store");
    obs::Gauge& gDivergent = registry->gauge("rc_fleet_divergent_members",
                                             "Members masked out of the last quorum epoch");
    obs::Gauge& gOutputRoas = registry->gauge("rc_fleet_consensus_roas",
                                              "VRP count of the last consensus output");
    obs::Histogram& hEpoch =
        registry->histogram("rc_fleet_epoch_seconds", "Wall time per fleet epoch");
    // Every member's vote counter is registered up front: a member that
    // never votes (e.g. crashed at epoch 0) must still surface an explicit
    // zero series in the exposition, not a silently missing one.
    std::vector<obs::Counter*> cVotes;
    cVotes.reserve(cfg.members);
    for (std::uint32_t i = 0; i < cfg.members; ++i) {
        cVotes.push_back(&registry->counter("rc_fleet_votes_total",
                                            "Votes cast by fleet members",
                                            {{"member", "member-" + std::to_string(i)}}));
    }

    rp::AlarmLog fleetAlarms;
    fleetAlarms.attachMetrics(registry, "fleet");
    fleetAlarms.attachRecorder(recorder);

    // --- worlds --------------------------------------------------------------
    // The primary (honest) world and, when any member is mirror-fed, a
    // second driver constructed from the *same* config: both replay the
    // identical op sequence until the mirror takes extra steps, at which
    // point its world forks into a legitimately-signed divergent view.
    // Authorities are honest: divergence is the *members'* fault, so the
    // twin is an exact oracle for the honest majority.
    sim::DriverConfig driverCfg;
    driverCfg.seed = cfg.seed;
    driverCfg.adversarialProbability = 0.0;
    sim::RandomScheduleDriver driver(driverCfg);
    std::optional<sim::RandomScheduleDriver> mirror;
    std::optional<RepositorySource> mirrorSource;
    std::uint64_t mirrorForkEpoch = MemberFaultSpec::kToEnd;
    if (anyMirror) {
        mirror.emplace(driverCfg);
        mirrorSource.emplace(mirror->repo());
        for (const MemberFaultSpec& s : cfg.faulty) {
            if (s.cls == MemberFaultClass::MirrorFed) {
                mirrorForkEpoch = std::min<std::uint64_t>(mirrorForkEpoch, s.fromEpoch);
            }
        }
    }
    RepositorySource honestSource(driver.repo());

    // --- members -------------------------------------------------------------
    std::vector<std::unique_ptr<Member>> fleet;
    for (std::uint32_t i = 0; i < cfg.members; ++i) {
        auto m = std::make_unique<Member>();
        m->index = i;
        m->subSeed = deriveMemberSeed(cfg.seed, i);
        for (const MemberFaultSpec& s : cfg.faulty) {
            if (s.member == i) m->spec = s;
        }
        if (m->spec.cls == MemberFaultClass::Stalled) {
            FaultPlan plan;
            plan.seed = m->subSeed;
            plan.rounds = cfg.epochs;
            plan.retryBudget = cfg.retryBudget;
            plan.stallHorizon = cfg.epochs + 2;  // pins must outlive the run
            m->chaos = std::make_unique<ChaosSource>(honestSource, std::move(plan));
        }
        SnapshotSource* source = &honestSource;
        if (m->chaos != nullptr) source = m->chaos.get();
        if (m->spec.cls == MemberFaultClass::MirrorFed && m->spec.fromEpoch == 0) {
            source = &*mirrorSource;
        }
        m->process.emplace(m->name(), driver.trustAnchors(), *source, cfg.retryBudget, registry,
                           &m->recorder);
        m->vfs = m->process->attachStore(
            nullptr, m->name() + "-state",
            rp::StoreOptions{.checkpointEvery = 8, .name = m->name()}, m->subSeed);
        fleet.push_back(std::move(m));
    }

    // The twin syncs on the main thread after the parallel phase, so its
    // alarms can go straight into the run recorder.
    MemberProcess twin("twin", driver.trustAnchors(), honestSource, cfg.retryBudget, registry,
                       recorder);

    MessageBus bus(cfg.members + 1);  // members + the aggregator
    const std::uint32_t aggregatorId = cfg.members;
    for (const LinkFault& f : cfg.linkFaults) bus.addFault(f);
    ConsensusTracker tracker(cfg.members, cfg.quorum);

    Rng crashRng(cfg.seed * 0x9e3779b97f4a7c15ull + 0xf1ee7u);
    std::map<std::string, std::uint64_t> pointFirstSeen;
    // I10 is only a theorem while the faulty set is a sub-quorum minority;
    // I11 additionally needs a loss-free vote channel (a lost vote is
    // indistinguishable from a crash, by design).
    const bool checkI10 = cfg.faulty.size() + cfg.quorum <= cfg.members;
    const bool checkI11 = checkI10 && cfg.linkFaults.empty();
    std::set<std::uint32_t> attributedMatching;  // specs attributed with the right class

    const auto violation = [&](std::uint64_t epoch, const std::string& what) {
        ctx.violation("epoch " + std::to_string(epoch) + ": " + what);
    };

    for (std::uint64_t r = 0; r < cfg.epochs; ++r) {
        const obs::Scope epochScope("fleet.epoch", "fleet", &hEpoch, recorder,
                                    "epoch e=" + std::to_string(r));
        ctx.publish("epoch", std::to_string(r));
        const Time now = static_cast<Time>(r);
        if (r > 0) {
            driver.step(now);
            if (mirror.has_value()) {
                mirror->step(now);  // lockstep replay of the primary world
                if (r >= mirrorForkEpoch) {
                    // Extra, unreplicated ops: the mirror world forks and
                    // runs ahead with validly-signed divergent content.
                    mirror->step(now);
                    mirror->step(now);
                }
            }
        }
        for (const auto& [uri, files] : driver.repo().points()) {
            pointFirstSeen.emplace(uri, r);
        }

        // --- sequential pre-sync phase: fault scheduling & lifecycle --------
        for (auto& mp : fleet) {
            Member& m = *mp;
            m.vote.reset();
            m.stateText.clear();
            m.state = RpkiState();
            m.failure.clear();
            if (m.spec.cls == MemberFaultClass::None) continue;

            if (m.spec.cls == MemberFaultClass::Crashed) {
                if (r == m.spec.fromEpoch && m.process->alive()) {
                    // Arm a kill inside this epoch's commit path; if the
                    // draw lands past it, the boundary kill below finishes
                    // the job. Either way the member casts no vote.
                    m.vfs->armCrashAt(m.vfs->opCount() + 1 + crashRng.nextBelow(12));
                    m.crashArmed = true;
                } else if (!m.process->alive() && m.spec.epochs != MemberFaultSpec::kToEnd &&
                           r == m.spec.fromEpoch + m.spec.epochs) {
                    // Rejoin through the one restart path (the soak's I8
                    // included), resuming at the current epoch.
                    const MemberProcess::Restart rs = m.process->restart(r);
                    if (!rs.ok()) {
                        violation(r, m.name() + " " + rs.violation);
                        continue;
                    }
                    result.stats.restarts += 1;
                    cRestarts.inc();
                }
            } else if (m.spec.cls == MemberFaultClass::Stalled && m.spec.activeAt(r)) {
                // Pin every reachable point to the member's last pre-fault
                // epoch; points born after the pin are unreachable instead
                // (the pinned world never advertised them).
                const std::uint64_t windowEnd = m.spec.epochs == MemberFaultSpec::kToEnd
                                                    ? cfg.epochs
                                                    : m.spec.fromEpoch + m.spec.epochs;
                for (const auto& [uri, firstSeen] : pointFirstSeen) {
                    if (!m.stalledCovered.insert(uri).second) continue;
                    Fault f;
                    f.pointUri = uri;
                    f.round = r;
                    f.rounds = static_cast<std::uint32_t>(windowEnd - r);
                    f.attempts = Fault::kAllAttempts;
                    if (m.spec.fromEpoch > 0 && firstSeen <= m.spec.fromEpoch - 1) {
                        f.kind = FaultKind::ServeStale;
                        f.param = m.spec.fromEpoch - 1;
                    } else {
                        f.kind = FaultKind::DropPoint;
                    }
                    m.chaos->addFault(std::move(f));
                }
            } else if (m.spec.cls == MemberFaultClass::MirrorFed && r == m.spec.fromEpoch &&
                       r > 0) {
                // Re-home the member's fetch path onto the mirror world
                // (its relying party and durable state carry over — only
                // the feed is hijacked).
                m.process->rebuildEngine(*mirrorSource, r);
            }
        }

        // --- parallel sync phase --------------------------------------------
        pool.parallelFor(fleet.size(), [&](std::size_t i) {
            Member& m = *fleet[i];
            if (!m.process->alive()) return;
            // A crashed member "process" died mid-commit: its vote for this
            // epoch dies with it; recovery happens at rejoin.
            const MemberProcess::SyncOutcome synced = m.process->sync(now);
            if (synced.crashed) m.process->kill();
            if (!synced.ok()) {
                m.failure = synced.error;
                return;
            }
            const RelyingParty& rp = m.process->rp();
            m.state = rp.roaState();
            m.stateText = stateToText(m.state);
            m.vote = VrpVote::cast(rp, m.index, r, m.stateText, m.state.size());
        });
        // Reassemble the parallel phase's flight events in member order:
        // the run recorder's stream is then byte-identical at every pool
        // size. (Hook sites already teed into the global recorder live.)
        for (auto& mp : fleet) {
            for (const obs::FlightEvent& ev : mp->recorder.drain()) {
                recorder->record(ev.kind, ev.component, ev.detail);
            }
        }
        twin.engine().syncRound(now);
        const RpkiState twinState = twin.rp().roaState();
        const std::string twinText = stateToText(twinState);

        // --- sequential post-sync phase: lifecycle bookkeeping --------------
        for (auto& mp : fleet) {
            Member& m = *mp;
            if (!m.failure.empty()) {
                violation(r, m.name() + " sync failed: " + m.failure);
            }
            if (m.crashArmed) {
                if (m.process->alive()) {
                    // The armed crash point fell past this epoch's commits:
                    // kill at the boundary instead (same observable: no
                    // vote, recovery from the store at rejoin).
                    m.process->kill();
                    m.vote.reset();
                    m.vfs->armCrashAt(UINT64_MAX);
                }
                m.crashArmed = false;
                result.stats.crashes += 1;
                cCrashes.inc();
                obs::flightRecord(recorder, obs::FlightKind::CrashRealized, "fleet",
                                  m.name() + " epoch=" + std::to_string(r));
            }
        }
        if (cfg.status != nullptr) {
            for (auto& mp : fleet) {
                Member& m = *mp;
                ctx.publish(m.name() + "/alive", m.process->alive() ? "yes" : "no");
                ctx.publish(m.name() + "/store-lsn",
                            std::to_string(m.process->store()->latestLsn()));
            }
        }

        // --- vote exchange ---------------------------------------------------
        for (auto& mp : fleet) {
            Member& m = *mp;
            if (!m.vote.has_value()) continue;
            const Bytes wire = m.vote->encode();
            bus.broadcast(m.index, r, ByteView(wire.data(), wire.size()));
            result.stats.votesCast += 1;
            cVotes[m.index]->inc();
        }

        TranscriptEpoch row;
        row.epoch = r;

        std::vector<VrpVote> epochVotes;
        for (const Envelope& env : bus.collect(aggregatorId, r)) {
            VrpVote v;
            try {
                v = VrpVote::decode(ByteView(env.payload.data(), env.payload.size()));
                if (v.member != env.from) throw ParseError("vote member does not match sender");
            } catch (const std::exception&) {
                row.rejectedVotes += 1;
                result.stats.votesRejected += 1;
                cVotesRejected.inc();
                cAlarmMalformed.inc();
                fleetAlarms.raise(rp::Alarm{rp::AlarmType::InvalidSyntax,
                                            "member-" + std::to_string(env.from),
                                            "member-" + std::to_string(env.from),
                                            /*accountable=*/true,
                                            "malformed vote payload on the consensus bus", now});
                continue;
            }
            if (v.epoch != r) {
                row.staleVotes += 1;
                result.stats.votesStale += 1;
                cVotesStale.inc();
                continue;
            }
            epochVotes.push_back(std::move(v));
        }
        row.votes = epochVotes;
        row.decision = tracker.decide(r, epochVotes);

        // Each voting member's local view of the same epoch (partition and
        // loss make these diverge from the aggregator's decision).
        for (auto& mp : fleet) {
            Member& m = *mp;
            const auto delivered = bus.collect(m.index, r);
            if (!m.vote.has_value()) continue;
            std::map<std::uint32_t, Digest> seen;
            seen[m.index] = m.vote->identity();
            for (const Envelope& env : delivered) {
                try {
                    const VrpVote v = VrpVote::decode(ByteView(env.payload.data(),
                                                               env.payload.size()));
                    if (v.epoch == r && v.member < cfg.members) {
                        seen.emplace(v.member, v.identity());
                    }
                } catch (const std::exception&) {
                    // A malformed vote carries no opinion.
                }
            }
            std::map<Digest, std::uint32_t> tally;
            for (const auto& [member, hash] : seen) tally[hash] += 1;
            LocalOutcome lo;
            lo.member = m.index;
            lo.votesSeen = static_cast<std::uint32_t>(seen.size());
            for (const auto& [hash, count] : tally) lo.agreeing = std::max(lo.agreeing, count);
            lo.outcome = lo.agreeing == cfg.members ? ConsensusOutcome::Unanimous
                         : lo.agreeing >= cfg.quorum ? ConsensusOutcome::Quorum
                                                     : ConsensusOutcome::NoQuorum;
            row.locals.push_back(lo);
        }

        // --- output, alarms, invariants --------------------------------------
        result.stats.epochs += 1;
        const char* outcomeText = row.decision.outcome == ConsensusOutcome::Unanimous
                                      ? "unanimous"
                                  : row.decision.outcome == ConsensusOutcome::Quorum
                                      ? "quorum"
                                      : "no-quorum";
        ctx.publish("outcome", outcomeText);
        obs::flightRecord(recorder, obs::FlightKind::FleetVerdict, "fleet",
                          "epoch=" + std::to_string(r) + " outcome=" + outcomeText +
                              " agreeing=" + std::to_string(row.decision.agreeing) + "/" +
                              std::to_string(cfg.members));
        switch (row.decision.outcome) {
            case ConsensusOutcome::Unanimous:
                result.stats.unanimousEpochs += 1;
                cEpochsUnanimous.inc();
                break;
            case ConsensusOutcome::Quorum:
                cEpochsQuorum.inc();
                break;
            case ConsensusOutcome::NoQuorum:
                result.stats.noQuorumEpochs += 1;
                cEpochsNoQuorum.inc();
                break;
        }

        if (row.decision.outcome != ConsensusOutcome::NoQuorum) {
            const Member& winner = *fleet[row.decision.winners.front()];
            row.hasOutput = true;
            row.outputRoas = winner.state.size();
            result.stats.finalOutputRoas = winner.state.size();
            result.stats.outputEpochs += 1;
            gOutputRoas.set(static_cast<std::int64_t>(winner.state.size()));
            gDivergent.set(static_cast<std::int64_t>(row.decision.verdicts.size()));
            // I10: a quorum-backed output is the fault-free twin's output,
            // byte for byte.
            if (checkI10 && winner.stateText != twinText) {
                violation(r, "I10: consensus output diverges from the fault-free twin (" +
                                 std::to_string(winner.state.size()) + " vs " +
                                 std::to_string(twinState.size()) + " VRPs)");
            }
        } else {
            // No quorum: the output is *withheld*, never guessed. The fleet
            // says so with an unaccountable missing-information alarm.
            cAlarmNoQuorum.inc();
            fleetAlarms.raise(rp::Alarm{rp::AlarmType::MissingInformation, "fleet-output", "",
                                        /*accountable=*/false,
                                        "no quorum: " + std::to_string(row.decision.agreeing) +
                                            "/" + std::to_string(cfg.quorum) +
                                            " votes on the largest candidate",
                                        now});
        }

        for (const MemberVerdict& v : row.decision.verdicts) {
            obs::flightRecord(recorder, obs::FlightKind::FleetVerdict, "fleet",
                              "epoch=" + std::to_string(r) + " member-" +
                                  std::to_string(v.member) + " class=" +
                                  std::string(toString(v.cls)) +
                                  (v.accountable ? " accountable=true" : " accountable=false"));
            ctx.publish("member-" + std::to_string(v.member) + "/verdict",
                        std::string(toString(v.cls)) + " @ epoch " + std::to_string(r));
            switch (v.cls) {
                case MemberFaultClass::Crashed:
                    result.stats.verdictsCrashed += 1;
                    cAlarmCrashed.inc();
                    break;
                case MemberFaultClass::Stalled:
                    result.stats.verdictsStalled += 1;
                    cAlarmStalled.inc();
                    break;
                case MemberFaultClass::MirrorFed:
                    result.stats.verdictsMirrorFed += 1;
                    cAlarmMirror.inc();
                    break;
                case MemberFaultClass::None:
                    break;
            }
            fleetAlarms.raise(rp::Alarm{
                v.table7, "member-" + std::to_string(v.member),
                v.accountable ? v.detail : std::string(), v.accountable,
                "quorum " + std::to_string(row.decision.agreeing) + "/" +
                    std::to_string(cfg.members) + " attributed " + std::string(toString(v.cls)) +
                    (v.detail.empty() ? std::string() : " (" + v.detail + ")"),
                now});

            if (checkI11) {
                // I11 soundness: a verdict must name a configured-faulty
                // member, with the configured class, inside (or, for
                // mirror-fed members whose poisoned cache outlives the
                // window, after) its fault window.
                const Member& m = *fleet[v.member];
                if (m.spec.cls == MemberFaultClass::None) {
                    violation(r, "I11: honest " + m.name() + " attributed as " +
                                     std::string(toString(v.cls)));
                } else if (m.spec.cls != v.cls) {
                    violation(r, "I11: " + m.name() + " configured " +
                                     std::string(toString(m.spec.cls)) + " but attributed " +
                                     std::string(toString(v.cls)));
                } else if (r < m.spec.fromEpoch ||
                           (v.cls != MemberFaultClass::MirrorFed && !m.spec.activeAt(r))) {
                    violation(r, "I11: " + m.name() + " attributed outside its fault window");
                } else {
                    attributedMatching.insert(v.member);
                }
            }
        }

        // Message-bus telemetry (counter deltas against the running stats).
        const BusStats& bs = bus.stats();
        cMsgSent.inc(bs.sent - result.stats.messagesSent);
        cMsgDelivered.inc(bs.delivered - result.stats.messagesDelivered);
        cMsgLost.inc(bs.lost - result.stats.messagesLost);
        cMsgDelayed.inc(bs.delayed - result.stats.messagesDelayed);
        cMsgCorrupted.inc(bs.corrupted - result.stats.messagesCorrupted);
        result.stats.messagesSent = bs.sent;
        result.stats.messagesDelivered = bs.delivered;
        result.stats.messagesLost = bs.lost;
        result.stats.messagesDelayed = bs.delayed;
        result.stats.messagesCorrupted = bs.corrupted;

        result.transcript.rows.push_back(std::move(row));
    }

    // I11 completeness: every configured faulty member whose window opened
    // during the run must have been attributed, with the right class, at
    // least once.
    if (checkI11) {
        for (const MemberFaultSpec& s : cfg.faulty) {
            if (s.fromEpoch >= cfg.epochs) continue;
            if (attributedMatching.count(s.member) == 0) {
                ctx.violation("I11: member-" + std::to_string(s.member) + " (configured " +
                              std::string(toString(s.cls)) + ") was never attributed in any epoch");
            }
        }
    }

    result.stats.twinFinalRoas = twin.rp().roaState().size();
    result.alarms = fleetAlarms.all();
    result.violations = std::move(ctx.violations);
    result.postmortems = std::move(ctx.postmortems);
    result.passed = result.violations.empty();
    ctx.publish("state", result.passed ? "passed" : "failed");
    return result;
}

}  // namespace rpkic::fleet
