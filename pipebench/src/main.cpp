// pipebench: one closed-loop round of the paper's pipeline, from
// "authorities publish" to "routers hold the VRP", timed end to end and
// per layer, with every round's output checked against ground truth.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//   pipebench --selftest [--seed N]
//
// Workloads: steady-churn, cold-start, vrp-heavy (see README.md). With
// --trace 0 the last stdout line is a JSON object carrying the end-to-end
// metrics; with --trace 1 every other round runs with the tracer on,
// and the JSON carries the per-layer metrics of the traced rounds (plus
// the tracing overhead against the untraced ones). --selftest checks the
// wall-clock guard, runs the oracle against a known-bad world, and checks
// that the byte-stable cost counters repeat exactly under the same seed.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "obs/clock.hpp"
#include "probe.hpp"
#include "scenario.hpp"
#include "util/parallel.hpp"

namespace {

using namespace pipebench;

constexpr int kTcpSessions = 4;
constexpr int kSetupRepeats = 3;
constexpr int kSetupProbes = 5;  // a set-up is scaled by their median
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kProbeWindow = 4;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool selftest = false;
};

void usage() {
    std::fprintf(stderr,
                 "usage: pipebench --workload steady-churn|cold-start|vrp-heavy --seed N\n"
                 "                 --seconds S --trace 0|1\n"
                 "       pipebench --selftest [--seed N]\n");
}

bool parse(int argc, char** argv, Options* o) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        if (a == "--workload" && hasValue) {
            o->workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            o->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && hasValue) {
            o->seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && hasValue) {
            o->trace = std::string(argv[++i]) == "1";
        } else if (a == "--selftest") {
            o->selftest = true;
        } else {
            return false;
        }
    }
    return o->selftest || (!o->workload.empty() && o->seconds > 0);
}

void pinToOneCpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed)) continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
        return;
    }
}

/// Wall-clock guard: every timing here must be steady-clock time, never
/// the logical ticks the deterministic telemetry dumps install.
bool steadyClockInstalled() {
    return dynamic_cast<obs::SteadyTimeSource*>(&obs::timeSource()) != nullptr;
}

/// Run-wide correctness tally: every round, set-up rounds included.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string firstFailure;
    void add(const Round& r) {
        attempted += r.attempted;
        failed += r.failed;
        if (firstFailure.empty() && r.failed != 0) firstFailure = r.failure;
    }
};

/// Log-bucketed latency histogram (2% buckets from 10 ns), so a run keeps
/// O(1) memory however many fleet queries it times.
class LogHistogram {
public:
    void add(double us) {
        const double x = std::max(us, kFirst);
        const auto i = static_cast<std::size_t>(std::log(x / kFirst) / std::log(kGrowth));
        ++counts_[std::min(i, counts_.size() - 1)];
        ++total_;
    }
    double quantile(double q) const {
        if (total_ == 0) return 0.0;
        const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(total_ - 1));
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            seen += counts_[i];
            if (seen > rank) return kFirst * std::pow(kGrowth, static_cast<double>(i) + 0.5);
        }
        return 0.0;
    }

private:
    static constexpr double kFirst = 0.01;
    static constexpr double kGrowth = 1.02;
    std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(1000);
    std::uint64_t total_ = 0;
};

/// What a set of measured rounds adds up to. Rounds are folded in and
/// dropped, so the benchmark's own memory stays flat over a run and the
/// resident-set samples measure the pipeline.
struct Summary {
    std::size_t rounds = 0;
    std::vector<double> latencyMs;
    std::vector<double> cpuMs;
    double rssMb = 0;
    double fleetSeconds = 0;
    double fleetPolls = 0;
    std::map<std::string, double> layerSums;
    LogHistogram consumeUs;
    TcpRouters::Result tcp;  ///< every TCP exchange of these rounds

    void add(const Round& r) {
        ++rounds;
        latencyMs.push_back(r.latencyMs);
        cpuMs.push_back(r.cpuMs);
        rssMb = std::max(rssMb, r.rssMb);
        fleetSeconds += r.fleetSeconds;
        fleetPolls += static_cast<double>(r.fleetPolls);
        for (const auto& [key, value] : r.layer) layerSums[key] += value;
        for (const float us : r.consumeUs) consumeUs.add(us);
        auto append = [](std::vector<double>& to, const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(tcp.notifyToEodUs, r.tcp.notifyToEodUs);
        append(tcp.untilQueryUs, r.tcp.untilQueryUs);
        append(tcp.queryToResponseUs, r.tcp.queryToResponseUs);
        append(tcp.responseToEodUs, r.tcp.responseToEodUs);
    }
    double mean(const std::string& key) const {
        const auto it = layerSums.find(key);
        return it == layerSums.end() || rounds == 0 ? 0.0
                                                    : it->second / static_cast<double>(rounds);
    }
};

/// Builds a world and runs its first (cold) round; returns the seconds.
double setUp(const Workload& w, std::uint64_t seed, TcpRouters& tcp, obs::Registry& registry,
             std::unique_ptr<Scenario>* out, Tally* tally) {
    out->reset();
    const std::uint64_t start = nowNs();
    auto scenario = std::make_unique<Scenario>(w, seed, tcp, registry);
    tally->add(scenario->run(false));
    const double seconds = static_cast<double>(nowNs() - start) / 1e9;
    *out = std::move(scenario);
    return seconds;
}

/// Scales every timing of one round by `factor`, to the reference host
/// (see probe.hpp).
void toReferenceHost(Round* r, double factor) {
    r->latencyMs *= factor;
    r->cpuMs *= factor;
    r->fleetSeconds *= factor;
    for (float& us : r->consumeUs) us = static_cast<float>(us * factor);
    for (auto* samples : {&r->tcp.notifyToEodUs, &r->tcp.untilQueryUs,
                          &r->tcp.queryToResponseUs, &r->tcp.responseToEodUs}) {
        for (double& us : *samples) us *= factor;
    }
    for (auto& [key, value] : r->layer) {
        if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ms") == 0) value *= factor;
    }
}

/// Runs rounds for `seconds` (at least kMinRounds), rebuilding the world
/// when it can no longer churn; rebuild rounds are checked, not sampled.
/// With `alternate`, every other round runs with the tracer on, so the
/// traced and untraced samples see the same drift. The host probe runs
/// after every round, outside the timed round; a round is scaled by the
/// median of the probes up to kProbeWindow rounds either side of it, so
/// a speed phase that starts mid-run is corrected where it happens.
void measure(const Workload& w, std::uint64_t seed, double seconds, bool alternate,
             TcpRouters& tcp, obs::Registry& registry, std::unique_ptr<Scenario>* scenario,
             Tally* tally, int* rebuilds, Summary* untraced, Summary* traced,
             std::vector<double>* probeMs) {
    std::deque<std::pair<Round, bool>> pending;  // rounds whose probe window is still open
    auto foldOldest = [&] {
        const std::size_t i = probeMs->size() - pending.size();
        const std::size_t from = i >= kProbeWindow ? i - kProbeWindow : 0;
        const std::size_t to = std::min(probeMs->size(), i + kProbeWindow + 1);
        const std::vector<double> window(probeMs->begin() + static_cast<std::ptrdiff_t>(from),
                                         probeMs->begin() + static_cast<std::ptrdiff_t>(to));
        auto& [round, trace] = pending.front();
        toReferenceHost(&round, kReferenceProbeMs / quantile(window, 0.5));
        (trace ? traced : untraced)->add(round);
        pending.pop_front();
    };
    const std::uint64_t start = nowNs();
    std::size_t rounds = 0;
    while (rounds < kMinRounds || static_cast<double>(nowNs() - start) / 1e9 < seconds) {
        if ((*scenario)->exhausted()) {
            ++*rebuilds;
            setUp(w, seed + 7919 * static_cast<std::uint64_t>(*rebuilds), tcp, registry, scenario,
                  tally);
            continue;
        }
        const bool trace = alternate && rounds % 2 == 1;
        Round r = (*scenario)->run(trace);
        tally->add(r);
        pending.emplace_back(std::move(r), trace);
        probeMs->push_back(hostProbeMs());
        if (pending.size() > kProbeWindow) foldOldest();
        ++rounds;
    }
    while (!pending.empty()) foldOldest();
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void printMetrics(const std::vector<Metric>& metrics) {
    for (const Metric& m : metrics) {
        std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
}

void printJson(const Tally& t, const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                t.failed == 0 ? "true" : "false", static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                    metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

/// The kernel's resident-set high-water mark, set-up and in-round
/// transients included (printed for reference; peak_rss_mb is the
/// largest resident set seen right after a measured round).
double kernelMaxRssMb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;
}

std::vector<Metric> endToEnd(const Summary& s, double setupSeconds, const Tally& tally) {
    const double failedFraction =
        tally.attempted == 0
            ? 1.0
            : static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
    return {
        {"setup_s", setupSeconds, "s"},
        {"publish_to_router_ms_p50", quantile(s.latencyMs, 0.5), "ms"},
        {"publish_to_router_ms_p90", quantile(s.latencyMs, 0.9), "ms"},
        {"cpu_ms_per_round", quantile(s.cpuMs, 0.5), "ms"},
        {"peak_rss_mb", s.rssMb, "MB"},
        {"rtr_polls_per_s", s.fleetSeconds > 0 ? s.fleetPolls / s.fleetSeconds : 0.0, "1/s"},
        {"rtr_tcp_notify_to_eod_us_p50", quantile(s.tcp.notifyToEodUs, 0.5), "us"},
        {"rtr_tcp_notify_to_eod_us_p90", quantile(s.tcp.notifyToEodUs, 0.9), "us"},
        {"ok_fraction", 1.0 - failedFraction, "ratio"},
    };
}

// Stages whose self times partition a round, in pipeline order.
const char* const kStages[] = {
    "consent.publish_ms", "cold.construct_ms", "rpki.fetch_ms",      "sync.self_ms",
    "rp.sync_ms",         "store.commit_ms",   "sync.epoch_sink_ms", "detector.index_ms",
    "detector.diff_ms",   "epoch.publish_ms",  "net.notify_ms",      "net.tcp_wait_ms",
    "rtr.fleet_ms",
};

struct LayerMetric {
    const char* name;
    const char* unit;
};
const LayerMetric kLayerMetrics[] = {
    {"consent.publish_ms", "ms"},        {"consent.manifest_updates", "count"},
    {"consent.signatures", "count"},     {"rpki.fetch_ms", "ms"},
    {"rpki.points_fetched", "count"},    {"rpki.bytes_fetched", "bytes"},
    {"sync.round_ms", "ms"},             {"sync.fetch_probe_ms", "ms"},
    {"sync.self_ms", "ms"},              {"sync.attempts", "count"},
    {"sync.retries", "count"},           {"sync.delivered_ratio", "ratio"},
    {"rp.sync_ms", "ms"},                {"rp.transitions", "count"},
    {"rp.rc_procedure_ms", "ms"},        {"rp.alarms", "count"},
    {"store.commit_ms", "ms"},           {"store.bytes_written", "bytes"},
    {"store.syncs", "count"},            {"store.checkpoints", "count"},
    {"detector.index_ms", "ms"},         {"detector.diff_ms", "ms"},
    {"detector.tuples", "count"},        {"detector.transitions", "count"},
    {"epoch.publish_ms", "ms"},          {"epoch.delta_tuples", "count"},
    {"epoch.snapshot_bytes", "bytes"},   {"rtr.delta_responses", "count"},
    {"rtr.snapshot_responses", "count"}, {"rtr.cache_resets", "count"},
    {"rtr.wire_bytes", "bytes"},         {"rtr.fleet_ms", "ms"},
    {"net.notify_ms", "ms"},             {"net.tcp_bytes", "bytes"},
    {"net.tcp_wait_ms", "ms"},           {"cold.construct_ms", "ms"},
};

/// Per-layer metrics (per-round means over the traced rounds), printing
/// the stage breakdown, tracing overhead and TCP split above the JSON.
std::vector<Metric> perLayer(const Summary& traced, const Summary& untraced) {
    std::vector<Metric> out;
    for (const LayerMetric& m : kLayerMetrics) out.push_back({m.name, traced.mean(m.name), m.unit});
    const double consumeP50 = traced.consumeUs.quantile(0.5);
    out.push_back({"rtr.consume_us_p50", consumeP50, "us"});
    out.push_back({"rtr.consume_us_p99", traced.consumeUs.quantile(0.99), "us"});
    const double tracedP50 = quantile(traced.latencyMs, 0.5);
    const double untracedP50 = quantile(untraced.latencyMs, 0.5);
    out.push_back({"trace.overhead_ms", tracedP50 - untracedP50, "ms"});

    double roundMean = 0;
    for (const double ms : traced.latencyMs) roundMean += ms;
    roundMean /= static_cast<double>(std::max<std::size_t>(1, traced.rounds));
    auto share = [&](double ms) { return roundMean > 0 ? 100 * ms / roundMean : 0.0; };
    std::printf("\nstage self time per round (traced, %zu rounds, mean round %.3f ms):\n",
                traced.rounds, roundMean);
    std::vector<std::pair<double, std::string>> stages;
    double covered = 0;
    for (const char* s : kStages) {
        const double v = traced.mean(s);
        covered += v;
        stages.emplace_back(v, s);
        std::printf("  %-22s %10.3f ms  %5.1f%%\n", s, v, share(v));
    }
    std::printf("  %-22s %10.3f ms  %5.1f%%\n", "(unattributed)", roundMean - covered,
                share(roundMean - covered));
    std::sort(stages.rbegin(), stages.rend());
    std::printf("top three stages by self time:");
    for (std::size_t i = 0; i < 3 && i < stages.size(); ++i) {
        std::printf("%s %s %.3f ms (%.1f%%)", i == 0 ? "" : ";", stages[i].second.c_str(),
                    stages[i].first, share(stages[i].first));
    }
    std::printf("\ntracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms = %.3f ms\n",
                tracedP50, untracedP50, tracedP50 - untracedP50);

    // The TCP exchange split at the client: what RtrCore costs in-core
    // against what the socket path around it adds.
    const double total = quantile(traced.tcp.notifyToEodUs, 0.5);
    const double untilQuery = quantile(traced.tcp.untilQueryUs, 0.5);
    const double serve = quantile(traced.tcp.queryToResponseUs, 0.5);
    const double transfer = quantile(traced.tcp.responseToEodUs, 0.5);
    out.push_back({"net.tcp_until_query_us_p50", untilQuery, "us"});
    out.push_back({"net.tcp_query_to_response_us_p50", serve, "us"});
    out.push_back({"net.tcp_response_to_eod_us_p50", transfer, "us"});
    std::printf(
        "rtr gap (%d TCP sessions): notify->End of Data p50 %.1f us = until query sent %.1f us "
        "+ query->Cache Response %.1f us + response->End of Data %.1f us; in-core "
        "RtrCore::consume p50 %.2f us, so %.1f us of the TCP figure is outside RtrCore, in the "
        "obs/serve net substrate and the client\n",
        kTcpSessions, total, untilQuery, serve, transfer, consumeP50, total - consumeP50);
    return out;
}

int runWorkload(const Options& o, const Workload& w) {
    obs::Registry registry;
    TcpRouters tcp(kTcpSessions);
    Tally tally;
    std::unique_ptr<Scenario> scenario;
    std::vector<double> setups;
    std::vector<double> probeMs;
    for (int k = 0; k < kSetupRepeats; ++k) {
        const double seconds = setUp(w, o.seed, tcp, registry, &scenario, &tally);
        std::vector<double> probes;
        for (int p = 0; p < kSetupProbes; ++p) probes.push_back(hostProbeMs());
        setups.push_back(seconds * kReferenceProbeMs / quantile(probes, 0.5));
    }
    int rebuilds = 0;
    Summary untraced;
    Summary traced;
    measure(w, o.seed, o.seconds, o.trace, tcp, registry, &scenario, &tally, &rebuilds,
            &untraced, &traced, &probeMs);
    scenario.reset();

    std::printf("pipebench workload=%s seed=%llu seconds=%g trace=%d\n", w.name.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
    cpu_set_t mask;
    CPU_ZERO(&mask);
    sched_getaffinity(0, sizeof mask, &mask);
    std::printf(
        "hardware_threads=%u cpus_used=%d pool_threads=%zu tcp_sessions=%d fleet_sessions=%zu\n",
        std::thread::hardware_concurrency(), CPU_COUNT(&mask),
        rc::parallel::defaultPool().threads(), kTcpSessions, w.fleetSessions);
    std::printf("rounds: untraced=%zu traced=%zu world_rebuilds=%d kernel_max_rss_mb=%.1f\n",
                untraced.rounds, traced.rounds, rebuilds, kernelMaxRssMb());
    std::printf("host_probe_ms: p10 %.3f median %.3f p90 %.3f over %zu rounds (reference %.1f); "
                "timings below are at reference speed\n",
                quantile(probeMs, 0.1), quantile(probeMs, 0.5), quantile(probeMs, 0.9),
                probeMs.size(), kReferenceProbeMs);
    std::printf("failed_fraction=%llu/%llu%s%s\n", static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted),
                tally.firstFailure.empty() ? "" : " first failure: ", tally.firstFailure.c_str());
    const std::vector<Metric> metrics = o.trace
                                            ? perLayer(traced, untraced)
                                            : endToEnd(untraced, quantile(setups, 0.5), tally);
    printMetrics(metrics);
    printJson(tally, metrics);
    return 0;
}

// ---------------------------------------------------------------------------
// Self-test

/// Runs set-up plus `rounds` rounds of a fresh world.
std::vector<Round> fixedRounds(const Workload& w, std::uint64_t seed, int rounds, Tally* tally) {
    obs::Registry registry;
    TcpRouters tcp(kTcpSessions);
    std::unique_ptr<Scenario> scenario;
    setUp(w, seed, tcp, registry, &scenario, tally);
    std::vector<Round> out;
    for (int i = 0; i < rounds && !scenario->exhausted(); ++i) {
        Round r = scenario->run(false);
        tally->add(r);
        out.push_back(std::move(r));
    }
    return out;
}

double meanLayer(const std::vector<Round>& rounds, const char* key) {
    Summary s;
    for (const Round& r : rounds) s.add(r);
    return s.mean(key);
}

bool sameShape(const std::vector<Round>& a, const std::vector<Round>& b, const char* key,
               double tolerance) {
    const double x = meanLayer(a, key);
    const double y = meanLayer(b, key);
    const bool ok = x == y || (x > 0 && std::abs(y - x) / x <= tolerance);
    std::printf("    shape %-22s reference %12.1f held-out %12.1f %s\n", key, x, y,
                ok ? "ok" : "DIFFERENT");
    return ok;
}

int selftest(const Options& o) {
    bool pass = true;
    {
        obs::LogicalTimeSource logical;
        obs::setTimeSource(&logical);
        const bool caught = !steadyClockInstalled();
        obs::setTimeSource(nullptr);
        std::printf("wall-clock guard: %s a LogicalTimeSource\n", caught ? "rejects" : "MISSES");
        pass = caught && steadyClockInstalled();
    }
    std::printf("oracle self-test\n");
    for (const char* name : {"steady-churn", "census-0.35"}) {
        // The first round of a world is where a bad census shows: its
        // relying party rejects the leaves the overflowing pool issued.
        obs::Registry registry;
        TcpRouters tcp(kTcpSessions);
        Scenario scenario(*findWorkload(name), o.seed, tcp, registry);
        Tally tally;
        Round first = scenario.run(false);
        const std::size_t published = scenario.world().truth()->size();
        tally.add(first);
        for (int i = 0; i < 2; ++i) tally.add(scenario.run(false));
        std::printf("  %s: %llu/%llu failed, first round: %.0f alarms, %.0f of %zu tuples served%s%s\n",
                    name, static_cast<unsigned long long>(tally.failed),
                    static_cast<unsigned long long>(tally.attempted), first.layer["rp.alarms"],
                    first.layer["detector.tuples"], published,
                    tally.firstFailure.empty() ? "" : "; ", tally.firstFailure.c_str());
        const bool knownBad = std::string(name) == "census-0.35";
        if ((tally.failed != 0) != knownBad) pass = false;
    }
    std::printf("deterministic cost counters\n");
    const std::uint64_t heldOut = o.seed + 1000003;
    for (const char* name : {"steady-churn", "cold-start", "vrp-heavy"}) {
        const Workload& w = *findWorkload(name);
        const int rounds = w.kind == Workload::Kind::Cold ? 3 : 6;
        Tally t1, t2, t3;
        const auto a = fixedRounds(w, o.seed, rounds, &t1);
        const auto b = fixedRounds(w, o.seed, rounds, &t2);
        bool same = a.size() == b.size();
        for (std::size_t i = 0; same && i < a.size(); ++i) same = a[i].counters == b[i].counters;
        std::printf("  %s: %zu rounds, counters %s across two runs with seed %llu\n", name,
                    a.size(), same ? "identical" : "DIFFER",
                    static_cast<unsigned long long>(o.seed));
        for (const Round& r : a) std::printf("    %s\n", r.counters.c_str());
        const auto c = fixedRounds(w, heldOut, rounds, &t3);
        bool shape = sameShape(a, c, "detector.tuples", 0.10);
        shape = sameShape(a, c, "rpki.points_fetched", 0.10) && shape;
        shape = sameShape(a, c, "rpki.bytes_fetched", 0.25) && shape;
        shape = sameShape(a, c, "epoch.delta_tuples", 0.60) && shape;
        if (!same || !shape || t1.failed + t2.failed + t3.failed != 0) pass = false;
    }
    std::printf("selftest %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    // A fixed mmap threshold turns off glibc's adaptive one, under which
    // the multi-MB state, WAL and snapshot buffers each round allocates
    // migrate into the heap and the resident set creeps with
    // fragmentation instead of tracking live memory.
    mallopt(M_MMAP_THRESHOLD, 256 * 1024);
    // All threads (the pipeline, the RtrServer loop, the TCP client) run
    // on one CPU; threads inherit the mask. The pipeline is sequential at
    // the default pool, and on a shared VM a wake-up that must bring an
    // idle vCPU back costs 1-9 ms at random, which made the TCP latency
    // tail a measure of the host. On one CPU every hand-off is a context
    // switch on a running vCPU.
    pinToOneCpu();
    Options o;
    if (!parse(argc, argv, &o)) {
        usage();
        return 2;
    }
    if (!steadyClockInstalled()) {
        std::fprintf(stderr, "pipebench: obs::timeSource() is not the steady clock\n");
        return 3;
    }
    try {
        if (o.selftest) return selftest(o);
        const Workload* w = findWorkload(o.workload);
        if (w == nullptr || w->name == "census-0.35") {
            usage();
            return 2;
        }
        const int rc = runWorkload(o, *w);
        if (!steadyClockInstalled()) {
            std::fprintf(stderr, "pipebench: obs::timeSource() changed during the run\n");
            return 3;
        }
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "pipebench: %s\n", e.what());
        return 1;
    }
}
