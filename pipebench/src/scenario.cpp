#include "scenario.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>

#include "bench.hpp"
#include "detector/diff.hpp"
#include "obs/trace.hpp"

namespace pipebench {

namespace {

const Workload kWorkloads[] = {
    // 4,000 in-core routers keep the census workloads' fleet phase long
    // enough (1-4 ms a round) for rtr_polls_per_s to be steady.
    {"steady-churn", Workload::Kind::Steady, 0.25, 4, 20, 4000},
    {"cold-start", Workload::Kind::Cold, 0.25, 4, 0, 4000},
    {"vrp-heavy", Workload::Kind::Heavy, 0.0, 0, 0, 20000},
    // The oracle self-test's known-bad world: above scale ~0.25 the
    // census's per-RIR /8 pool overflows, so leaves are issued resources
    // their trust anchor does not hold and the relying party rejects them.
    {"census-0.35", Workload::Kind::Steady, 0.35, 4, 0, 200},
};

constexpr int kTcpWaitMs = 10000;
// Census manifests live 1000 simulated ticks; rebuild well before.
constexpr Time kMaxWorldRounds = 900;

double cpuNowMs() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) * 1e3 +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e3;
}

/// Current resident set size, from /proc/self/statm.
double residentMb() {
    long pages = 0;
    long resident = 0;
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr) return 0.0;
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
    return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

/// Sum over every series of a family: counter and gauge values, or
/// histogram sums.
double familyTotal(const obs::RegistrySnapshot& snap, const char* name) {
    const obs::FamilySnapshot* f = snap.find(name);
    if (f == nullptr) return 0.0;
    double total = 0.0;
    for (const obs::SeriesSnapshot& s : f->series) {
        total += f->kind == obs::MetricKind::Histogram ? s.sum : s.value;
    }
    return total;
}

double delta(const obs::RegistrySnapshot& after, const obs::RegistrySnapshot& before,
             const char* family) {
    return familyTotal(after, family) - familyTotal(before, family);
}

}  // namespace

const Workload* findWorkload(const std::string& name) {
    for (const Workload& w : kWorkloads) {
        if (w.name == name) return &w;
    }
    return nullptr;
}

Scenario::Scenario(const Workload& workload, std::uint64_t seed, TcpRouters& tcp,
                   obs::Registry& registry)
    : workload_(workload),
      seed_(seed),
      tcp_(tcp),
      registry_(registry),
      fleet_(workload.fleetSessions, seed) {
    world_ = workload.kind == Workload::Kind::Heavy
                 ? World::vrpHeavy(seed)
                 : World::census(seed, workload.censusScale, workload.opsPerRound);
    emptyIndex_ = std::make_shared<const PrefixValidityIndex>(std::make_shared<const RpkiState>());
    prevIndex_ = emptyIndex_;
    if (workload.kind != Workload::Kind::Cold) {
        pipeline_ = std::make_unique<Pipeline>(world_->repository(), world_->trustAnchors(), seed,
                                               workload.faultPerMille, registry_);
        startServing(static_cast<std::uint16_t>(1 + seed % 60000));
    }
}

Scenario::~Scenario() {
    stopServing();
}

bool Scenario::exhausted() const {
    return !world_->canChurn() || now_ >= kMaxWorldRounds;
}

void Scenario::startServing(std::uint16_t sessionId) {
    serve::EpochStore::Options storeOptions;
    storeOptions.sessionId = sessionId;
    storeOptions.registry = &registry_;
    store_ = std::make_unique<serve::EpochStore>(storeOptions);
    serve::RtrCore::Options coreOptions;
    coreOptions.registry = &registry_;
    core_ = std::make_unique<serve::RtrCore>(*store_, coreOptions);
    serve::RtrServer::Options serverOptions;
    serverOptions.socket.maxSessions = 16;
    serverOptions.socket.registry = &registry_;
    serverOptions.core.registry = &registry_;
    server_ = std::make_unique<serve::RtrServer>(*store_, serverOptions);
    std::string error;
    if (!server_->start("127.0.0.1:0", &error)) {
        throw std::runtime_error("RtrServer start: " + error);
    }
    truth_.clear();
    tcpConnected_ = false;
}

void Scenario::stopServing() {
    if (server_ == nullptr) return;
    if (tcpConnected_) tcp_.disconnect();
    tcpConnected_ = false;
    server_->stop();
    server_.reset();
    core_.reset();
    store_.reset();
}

Round Scenario::run(bool traced) {
    Round r;
    const bool cold = workload_.kind == Workload::Kind::Cold;
    ++now_;
    const std::vector<AuthorityOp> ops = world_->planRound();
    const std::shared_ptr<const RpkiState> truth = world_->truth();
    const std::uint64_t truthHash = setHash(*truth);
    if (cold) {
        // The previous round's process exits: routers lose their cache.
        stopServing();
        pipeline_.reset();
    }
    const obs::RegistrySnapshot before = registry_.snapshot();
    const std::uint64_t tcpErrorsBefore = tcp_.protocolErrors();
    const std::size_t alarmsBefore =
        pipeline_ != nullptr ? pipeline_->relyingParty().alarms().count() : 0;
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.setEnabled(traced);

    // ---- the timed round ------------------------------------------------
    const double cpu0 = cpuNowMs();
    const std::uint64_t t0 = nowNs();
    const PublishStats pub = world_->apply(ops, now_);
    const std::uint64_t tPub = nowNs();
    if (cold) {
        pipeline_ = std::make_unique<Pipeline>(world_->repository(), world_->trustAnchors(),
                                               seed_ + coldRounds_, workload_.faultPerMille,
                                               registry_);
        startServing(static_cast<std::uint16_t>(1 + coldRounds_ % 60000));
        ++coldRounds_;
        prevIndex_ = emptyIndex_;
    }
    const std::uint64_t fetchNs0 = pipeline_->source().nanos;
    const std::uint64_t points0 = pipeline_->source().pointsFetched;
    const std::uint64_t bytes0 = pipeline_->source().bytesFetched;
    const std::uint64_t vfsBytes0 = pipeline_->vfs().bytesWritten;
    const std::uint64_t vfsSyncs0 = pipeline_->vfs().syncs;
    const std::uint64_t sink0 = pipeline_->sinkNanos;
    const std::uint64_t tSync = nowNs();
    const rp::SyncReport report = pipeline_->syncRound(now_);
    const std::uint64_t tSyncEnd = nowNs();
    const std::shared_ptr<const RpkiState> state = pipeline_->state();
    const auto index = std::make_shared<const PrefixValidityIndex>(state);
    const std::uint64_t tIndex = nowNs();
    const DowngradeReport downgrades = diffStates(*prevIndex_, *index);
    const std::uint64_t tDiff = nowNs();
    prevIndex_ = index;
    const std::shared_ptr<const serve::Epoch> epoch = store_->publish(now_, state);
    const std::uint64_t tEpoch = nowNs();
    const TruthBook::Entry expected{truthHash, truth->size()};
    truth_.add(epoch->serial, expected);

    const std::uint64_t tNotify = nowNs();
    if (!tcpConnected_) {
        tcp_.connect(server_->port(), epoch->serial, expected, tNotify);
        tcpConnected_ = true;
    } else {
        tcp_.expect(epoch->serial, expected, tNotify);
        server_->notify();
    }
    const std::uint64_t tNotified = nowNs();
    // TCP routers first, then the in-core fleet: overlapping them would
    // make the TCP figures depend on how the scheduler shares cores
    // between the fleet loop and the server and client threads.
    TcpRouters::Result tcp = tcp_.wait(kTcpWaitMs);
    const std::uint64_t tFleet = std::max(nowNs(), tNotified);
    FleetRound fleet = fleet_.poll(*core_, truth_, tick_++);
    const std::uint64_t tEnd = nowNs();
    const double cpu1 = cpuNowMs();
    // ---- end of the timed round -----------------------------------------

    tracer.setEnabled(false);
    const obs::RegistrySnapshot after = registry_.snapshot();
    const std::size_t alarms = pipeline_->relyingParty().alarms().count() - alarmsBefore;
    const std::uint64_t protocolErrors =
        static_cast<std::uint64_t>(delta(after, before, "rc_rtr_protocol_errors_total")) +
        (tcp_.protocolErrors() - tcpErrorsBefore);

    // Oracle: the relying party must hold exactly what the generator
    // published, raise no alarm in an honest world, and the routers must
    // see no protocol error; each query and TCP exchange was checked
    // against the truth of its serial as it was applied.
    if (*state != *truth) {
        r.failure = "relying party holds " + std::to_string(state->size()) + " tuples, truth " +
                    std::to_string(truth->size());
    } else if (alarms != 0) {
        r.failure = std::to_string(alarms) + " alarms in an honest world";
    } else if (protocolErrors != 0) {
        r.failure = std::to_string(protocolErrors) + " RTR protocol errors";
    }
    const bool roundOk = r.failure.empty();
    if (roundOk && fleet.failures != 0) r.failure = "in-core router sessions off the truth";
    if (roundOk && tcp.failures != 0) r.failure = "TCP router sessions off the truth";
    r.attempted = 1 + fleet.polls + static_cast<std::uint64_t>(tcp.notifyToEodUs.size()) +
                  tcp.failures;
    r.failed = (roundOk ? 0 : 1) + fleet.failures + tcp.failures;

    r.latencyMs = static_cast<double>(tEnd - t0) / 1e6;
    r.cpuMs = cpu1 - cpu0;
    r.rssMb = residentMb();
    r.fleetSeconds = static_cast<double>(tEnd - tFleet) / 1e9;
    r.fleetPolls = fleet.polls;
    r.tcp = std::move(tcp);
    r.consumeUs = std::move(fleet.consumeUs);

    auto ms = [](std::uint64_t a, std::uint64_t b) { return static_cast<double>(b - a) / 1e6; };
    auto& L = r.layer;
    L["consent.publish_ms"] = ms(t0, tPub);
    L["consent.manifest_updates"] = static_cast<double>(pub.manifestUpdates);
    L["consent.signatures"] = static_cast<double>(pub.signatures);
    L["cold.construct_ms"] = cold ? ms(tPub, tSync) : 0.0;
    L["rpki.fetch_ms"] = static_cast<double>(pipeline_->source().nanos - fetchNs0) / 1e6;
    L["rpki.points_fetched"] = static_cast<double>(pipeline_->source().pointsFetched - points0);
    L["rpki.bytes_fetched"] = static_cast<double>(pipeline_->source().bytesFetched - bytes0);
    L["sync.round_ms"] = ms(tSync, tSyncEnd);
    L["sync.fetch_probe_ms"] = delta(after, before, "rc_sync_point_delivery_seconds") * 1e3;
    L["sync.attempts"] = delta(after, before, "rc_sync_attempts_total");
    L["sync.retries"] = delta(after, before, "rc_sync_retries_total");
    L["sync.delivered_ratio"] =
        report.attempts == 0 ? 0.0
                             : static_cast<double>(report.pointsDelivered) /
                                   static_cast<double>(report.attempts);
    L["sync.epoch_sink_ms"] = static_cast<double>(pipeline_->sinkNanos - sink0) / 1e6;
    L["rp.transitions"] = delta(after, before, "rc_rp_transitions_total");
    L["rp.rc_procedure_ms"] = delta(after, before, "rc_rp_procedure_seconds") * 1e3;
    L["rp.alarms"] = static_cast<double>(alarms);
    L["store.commit_ms"] = delta(after, before, "rc_store_commit_seconds") * 1e3;
    L["store.bytes_written"] = static_cast<double>(pipeline_->vfs().bytesWritten - vfsBytes0);
    L["store.syncs"] = static_cast<double>(pipeline_->vfs().syncs - vfsSyncs0);
    L["store.checkpoints"] = delta(after, before, "rc_store_checkpoints_total");
    L["detector.index_ms"] = ms(tSyncEnd, tIndex);
    L["detector.diff_ms"] = ms(tIndex, tDiff);
    L["detector.tuples"] = static_cast<double>(state->size());
    L["detector.transitions"] = static_cast<double>(downgrades.tupleTransitions.size());
    L["epoch.publish_ms"] = ms(tDiff, tEpoch);
    L["epoch.delta_tuples"] = static_cast<double>(epoch->announced + epoch->withdrawn);
    L["epoch.snapshot_bytes"] = static_cast<double>(epoch->snapshotPdus.size());
    L["net.notify_ms"] = ms(tNotify, tNotified);
    L["net.tcp_wait_ms"] = ms(tNotified, tFleet);
    L["rtr.fleet_ms"] = ms(tFleet, tEnd);
    L["rtr.polls"] = static_cast<double>(fleet.polls);
    L["rtr.delta_responses"] = static_cast<double>(fleet.deltaResponses);
    L["rtr.snapshot_responses"] = static_cast<double>(fleet.snapshotResponses);
    L["rtr.cache_resets"] = static_cast<double>(fleet.cacheResets);
    L["rtr.wire_bytes"] = static_cast<double>(fleet.wireBytes);
    L["net.tcp_bytes"] = delta(after, before, "rc_http_bytes_written_total");
    if (traced) {
        double rpSyncNs = 0;
        for (const obs::TraceEvent& e : tracer.snapshot()) {
            if (std::string_view(e.name) == "rp.sync") rpSyncNs += static_cast<double>(e.durNanos);
        }
        L["rp.sync_ms"] = rpSyncNs / 1e6;
        L["sync.self_ms"] = L["sync.round_ms"] - L["rpki.fetch_ms"] - L["rp.sync_ms"] -
                            L["store.commit_ms"] - L["sync.epoch_sink_ms"];
        tracer.clear();
    }

    // The server's byte counter can lag the client's End of Data by a
    // context switch, so the byte-stable TCP count is the client's.
    char line[320];
    std::snprintf(line, sizeof line,
                  "round=%llu signatures=%.0f bytes_fetched=%.0f bytes_committed=%.0f "
                  "delta_tuples=%.0f wire_bytes=%.0f tcp_bytes=%llu",
                  static_cast<unsigned long long>(now_), L["consent.signatures"],
                  L["rpki.bytes_fetched"], L["store.bytes_written"], L["epoch.delta_tuples"],
                  L["rtr.wire_bytes"], static_cast<unsigned long long>(r.tcp.bytesReceived));
    r.counters = line;
    return r;
}

}  // namespace pipebench
