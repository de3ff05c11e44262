// rpkic-soak: chaos soak harness over the relying-party pipeline.
//
// Runs N seeded fault schedules (sim/chaos_soak.hpp) against the random
// authority-hierarchy driver, checking robustness invariants I1-I7 every
// round against a fault-free twin relying party. Any failing run prints
// its serialized FaultPlan (and writes it to soak-fail-seed<N>.plan);
// replaying the plan reproduces the identical outcome:
//
//   rpkic-soak --seeds 200                     # the full gauntlet
//   rpkic-soak --smoke                         # CI: 32 seeds, short runs
//   rpkic-soak --plan soak-fail-seed7.plan     # bit-identical replay
//   rpkic-soak --seeds 64 --crash-every 3      # kill/restart gauntlet
//   rpkic-soak --crash-sweep --seeds 8         # exhaustive per-op crash sweep
//   rpkic-soak --fleet 5 --faulty-set 1:crash:5:6  # fleet consensus (I10/I11)
//   rpkic-soak --pack all --seeds 16           # attack zoo (I12/I13)
//
// Modes: the soak (default), --crash-sweep, --fleet, --pack, and --plan (a
// soak-plan or a pack-plan replay, by the plan's pack= header). At most one
// mode flag may be given, and a flag the selected mode does not read is a
// usage error. kFlags below is that mode x flag table; docs/TOOLS.md
// documents every flag against it.
//
// Exit status: 0 = all invariants held, 2 = violations, 1 = usage/IO error.
#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adversary/runner.hpp"
#include "fleet/fleet.hpp"
#include "obs/flight/postmortem.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/parallel_metrics.hpp"
#include "obs/serve/introspect.hpp"
#include "serve/rtr.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"
#include "util/vfs.hpp"

using namespace rpkic;
using namespace rpkic::sim;

namespace {

using ull = unsigned long long;

// ---------------------------------------------------------------------------
// The mode x flag table

enum Mode : unsigned {
    kSoak = 1u << 0,
    kSweep = 1u << 1,
    kFleet = 1u << 2,
    kPack = 1u << 3,
    kSoakReplay = 1u << 4,
    kPackReplay = 1u << 5,
};
constexpr unsigned kSweeps = kSoak | kSweep | kFleet | kPack;  ///< the seed-sweep modes
constexpr unsigned kAll = kSweeps | kSoakReplay | kPackReplay;
constexpr const char* kModeNames[] = {"soak", "crash-sweep",      "fleet",
                                      "pack", "soak-plan replay", "pack-plan replay"};

enum Kind { kSwitch, kText, kCount, kPositive, kProbability };

struct Flag {
    const char* name;
    Kind kind;
    const char* metavar;
    unsigned modes;    ///< the modes that read the flag
    unsigned selects;  ///< the mode the flag selects, or 0 (a plan's is refined on reading)
};

constexpr Flag kFlags[] = {
    {"--seeds", kPositive, "N", kSweeps, 0},
    {"--seed-base", kCount, "B", kSweeps, 0},
    {"--rounds", kPositive, "N", kSoak | kFleet | kPack, 0},
    {"--fault-rate", kProbability, "X", kSoak, 0},
    {"--retry-budget", kCount, "N", kSoak | kFleet | kPack, 0},
    {"--adversarial", kProbability, "X", kSoak | kSweep, 0},
    {"--crash-every", kCount, "N", kSoak, 0},
    {"--state-dir", kText, "DIR", kSoak | kSoakReplay, 0},
    {"--crash-sweep", kSwitch, "", kSweep, kSweep},
    {"--fleet", kPositive, "N", kFleet, kFleet},
    {"--quorum", kPositive, "Q", kFleet, 0},
    {"--faulty-set", kText, "SPEC", kFleet, 0},
    {"--transcript-out", kText, "FILE", kFleet | kPack | kPackReplay, 0},
    {"--smoke", kSwitch, "", kSweeps, 0},
    {"--pack", kText, "NAME[,..]", kPack, kPack},
    {"--disable-detection", kSwitch, "", kPack | kPackReplay, 0},
    {"--plan", kText, "FILE", kSoakReplay | kPackReplay, kSoakReplay},
    {"--quiet", kSwitch, "", kAll, 0},
    {"--scoreboard", kSwitch, "", kSoak | kSoakReplay, 0},
    {"--metrics-out", kText, "FILE", kAll, 0},
    {"--trace-out", kText, "FILE", kAll, 0},
    {"--serve", kText, "ADDR:PORT", kAll, 0},
    {"--serve-hold", kSwitch, "", kAll, 0},
    {"--rtr", kText, "ADDR:PORT", kSoak | kSoakReplay, 0},
    {"--rtr-dump", kText, "FILE", kSoak | kSoakReplay, 0},
    {"--flight-out", kText, "DIR", kAll, 0},
    {"--force-invariant-fail", kSwitch, "", kSoak | kSoakReplay, 0},
    {"--log-level", kText, "LEVEL", kAll, 0},
    {"--threads", kText, "N", kAll, 0},
};

std::string usage() {
    std::string out = "usage: rpkic-soak";
    std::size_t column = out.size();
    for (const Flag& f : kFlags) {
        std::string item = std::string(" [") + f.name;
        if (f.kind != kSwitch) item += std::string(" ") + f.metavar;
        item += "]";
        if (column + item.size() > 78) {
            out += "\n                 ";
            column = 17;
        }
        out += item;
        column += item.size();
    }
    return out;
}

double parseProbability(const std::string& value, const char* flag) {
    double x = -1.0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, x);
    if (ec != std::errc() || ptr != end || !(x >= 0.0 && x <= 1.0)) {
        throw UsageError(std::string(flag) + " must be a number in [0, 1]: " + value);
    }
    return x;
}

/// The checked command line: the last value of every given flag.
struct Cli {
    std::map<std::string, std::string> values;

    bool has(const char* flag) const { return values.count(flag) > 0; }
    std::string text(const char* flag) const { return has(flag) ? values.at(flag) : ""; }
    std::uint64_t count(const char* flag, std::uint64_t fallback) const {
        return has(flag) ? parseU64(text(flag), flag) : fallback;
    }
    std::uint32_t count32(const char* flag, std::uint32_t fallback) const {
        const std::uint64_t n = count(flag, fallback);
        if (n > UINT32_MAX) throw UsageError(std::string(flag) + " is out of range");
        return static_cast<std::uint32_t>(n);
    }
    double probability(const char* flag, double fallback) const {
        return has(flag) ? parseProbability(text(flag), flag) : fallback;
    }
};

// ---------------------------------------------------------------------------
// The one report path

bool writeFileOrComplain(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "rpkic-soak: cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return true;
}

/// Every run hands its verdict, postmortems and replay artifact to add()
/// in seed order; finish() writes the run-wide outputs and picks the exit
/// code.
struct Reporter {
    const Cli& cli;
    std::uint64_t failures = 0;
    std::string transcripts;  ///< --transcript-out
    std::string epochDump;    ///< --rtr-dump

    explicit Reporter(const Cli& c) : cli(c) {}

    /// A failed run's `failFile` (a plan replayable with --plan, or a fleet
    /// transcript) is written, or printed when it cannot be.
    void add(bool ok, const std::vector<obs::CapturedBundle>& postmortems,
             const std::string& failFile = "", const std::string& failBody = "") {
        if (!ok) ++failures;
        if (!ok && !failFile.empty()) {
            const char* file = failFile.c_str();
            const bool plan = failFile.ends_with(".plan");
            std::ofstream out(failFile, std::ios::binary);
            if (!(out << failBody)) {
                std::printf("  (could not write %s; %s follows)\n%s", file,
                            plan ? "plan" : "transcript", failBody.c_str());
            } else if (plan) {
                std::printf("  plan written to %s — replay with: rpkic-soak --plan %s\n", file,
                            file);
            } else {
                std::printf("  transcript written to %s\n", file);
            }
        }
        if (!cli.has("--flight-out")) return;
        for (const obs::CapturedBundle& b : postmortems) {
            const std::string path = cli.text("--flight-out") + "/" + b.label + ".postmortem";
            if (writeFileOrComplain(path, b.bytes) && !cli.has("--quiet")) {
                std::printf("postmortem (%s) written to %s\n", b.trigger.c_str(), path.c_str());
            }
        }
    }

    bool write(const char* flag, const char* what, const std::string& text) const {
        if (!writeFileOrComplain(cli.text(flag), text)) return false;
        if (!cli.has("--quiet")) std::printf("%s written to %s\n", what, cli.text(flag).c_str());
        return true;
    }

    int finish() const {
        const bool written =
            (!cli.has("--transcript-out") ||
             write("--transcript-out", "transcripts", transcripts)) &&
            (!cli.has("--rtr-dump") || write("--rtr-dump", "epoch dump", epochDump)) &&
            (!cli.has("--metrics-out") ||
             write("--metrics-out", "metrics", obs::Registry::global().renderPrometheus())) &&
            (!cli.has("--trace-out") ||
             write("--trace-out", "trace", obs::Tracer::global().renderChromeTrace()));
        return !written ? 1 : failures == 0 ? 0 : 2;
    }
};

void reportSoak(Reporter& reporter, const SoakResult& r, bool quiet) {
    const SoakStats& s = r.stats;
    if (!quiet) {
        std::printf(
            "seed %-6llu %s  faults=%llu hits=%llu attempts=%llu retries=%llu "
            "absorbed=%llu failed-rounds=%llu worst-streak=%u recoveries=%llu "
            "mean-recovery=%.2f alarms=%llu (accountable=%llu, twin=%llu) "
            "roas=%zu/%zu\n",
            ull(r.seed), r.passed ? "ok  " : "FAIL", ull(s.faultsScheduled),
            ull(s.faultApplications), ull(s.attempts), ull(s.retries), ull(s.faultsAbsorbed),
            ull(s.pointRoundsFailed), s.maxStaleStreak, ull(s.recoveries), s.meanRecoveryRounds,
            ull(s.alarms), ull(s.accountableAlarms), ull(s.twinAlarms), s.validRoasFinal,
            s.twinValidRoasFinal);
        if (r.plan.crashEvery > 0) {
            std::printf(
                "  durability seed %-6llu crashes=%llu recoveries=%llu commits=%llu "
                "torn-bytes=%llu rounds-redone=%llu\n",
                ull(r.seed), ull(s.crashes), ull(s.storeRecoveries), ull(s.storeCommits),
                ull(s.storeTornBytes), ull(s.roundsRedone));
        }
    }
    if (!r.passed) {
        std::printf("seed %llu VIOLATIONS:\n", ull(r.seed));
        for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
    }
    if (reporter.cli.has("--scoreboard")) {
        std::printf("  round | listed deliv fail quar | attempts retries absorbed | alarms roas\n");
        for (const auto& round : r.rounds) {
            std::printf("  %5llu | %6zu %5zu %4zu %4zu | %8llu %7llu %8llu | %6zu %4zu\n",
                        ull(round.round), round.pointsListed, round.pointsDelivered,
                        round.pointsFailed, round.pointsQuarantined, ull(round.attempts),
                        ull(round.retries), ull(round.faultsAbsorbed), round.alarmsRaised,
                        round.validRoas);
        }
    }
    reporter.add(r.passed, r.postmortems, "soak-fail-seed" + std::to_string(r.seed) + ".plan",
                 r.plan.serialize());
    reporter.epochDump += r.epochDump;
}

void reportPack(Reporter& reporter, const adversary::PackRunResult& r, bool quiet) {
    if (!quiet || !r.passed) {
        std::string verdicts;
        for (const auto cls : r.realized.verdictClasses) {
            if (!verdicts.empty()) verdicts += ",";
            verdicts += std::string(fleet::toString(cls));
        }
        if (verdicts.empty()) verdicts = "-";
        std::printf(
            "pack %-18s seed %-4llu %s  alarms=%zu faults=%zu hits=%llu overlays=%llu "
            "quarantined=%s verdicts=%s\n",
            r.pack.c_str(), ull(r.seed), r.passed ? "ok  " : "FAIL", r.realized.alarms.size(),
            r.plan.faults.size(), ull(r.faultApplications), ull(r.overlayApplications),
            r.realized.quarantined ? "yes" : "no", verdicts.c_str());
    }
    if (!r.passed) {
        std::printf("pack %s seed %llu ORACLE DIFF:\n", r.pack.c_str(), ull(r.seed));
        for (const std::string& m : r.diff.missing) std::printf("  missing:  %s\n", m.c_str());
        for (const std::string& s : r.diff.spurious) std::printf("  spurious: %s\n", s.c_str());
    }
    reporter.add(r.passed, r.postmortems,
                 "pack-fail-" + r.pack + "-seed" + std::to_string(r.seed) + ".plan",
                 r.plan.serialize());
    reporter.transcripts += r.transcript;
}

// --serve-hold exits on SIGINT/SIGTERM (fatal signals go through the
// flight handler instead).
std::atomic<bool> gStopServing{false};

extern "C" void onStopSignal(int) { gStopServing.store(true); }

}  // namespace

int main(int argc, char** argv) {
    // --- the command line, checked against the mode x flag table ------------
    Cli cli;
    unsigned mode = kSoak;
    FaultPlan plan;
    SoakConfig cfg;
    try {
        const Flag* selector = nullptr;
        std::vector<const Flag*> given;
        for (int i = 1; i < argc; ++i) {
            const Flag* f = std::find_if(std::begin(kFlags), std::end(kFlags), [&](const Flag& x) {
                return std::strcmp(argv[i], x.name) == 0;
            });
            if (f == std::end(kFlags)) {
                std::fprintf(stderr, "%s\n", usage().c_str());
                return 1;
            }
            std::string& value = cli.values[f->name];
            if (f->kind != kSwitch) {
                if (i + 1 >= argc) throw UsageError(std::string(f->name) + " requires a value");
                value = argv[++i];
            }
            if (f->kind == kCount) parseU64(value, f->name);
            if (f->kind == kPositive && parseU64(value, f->name) == 0) {
                throw UsageError(std::string(f->name) + " must be >= 1");
            }
            if (f->kind == kProbability) parseProbability(value, f->name);
            if (f->selects != 0 && selector != nullptr && selector != f) {
                throw UsageError(std::string(selector->name) + " and " + f->name +
                                 " select different modes");
            }
            if (f->selects != 0) selector = f;
            if (std::strcmp(f->name, "--smoke") == 0) {
                cli.values["--seeds"] = "32";
                cli.values["--rounds"] = "25";
            }
            given.push_back(f);
        }
        if (selector != nullptr) mode = selector->selects;
        if (mode == kSoakReplay) {
            const std::string path = cli.text("--plan");
            std::ifstream in(path, std::ios::binary);
            if (!in) {
                std::fprintf(stderr, "rpkic-soak: cannot open %s\n", path.c_str());
                return 1;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            try {
                plan = FaultPlan::parse(buf.str());
            } catch (const ParseError& e) {
                std::fprintf(stderr, "rpkic-soak: %s: %s\n", path.c_str(), e.what());
                return 1;
            }
            if (!plan.pack.empty()) mode = kPackReplay;
        }
        for (const Flag* f : given) {
            if ((f->modes & mode) == 0) {
                throw UsageError(std::string(f->name) + " is not read in " +
                                 kModeNames[std::countr_zero(mode)] + " mode");
            }
        }
        if (cli.has("--log-level")) {
            obs::Logger::global().setLevel(obs::logLevelFromString(cli.text("--log-level")));
        }
        rc::parallel::configureDefaultPool(
            cli.has("--threads") ? rc::parallel::parseThreadSpec(cli.text("--threads"))
                                 : rc::parallel::defaultThreadCount(),
            &obs::parallelMetricsObserver());
        cfg.rounds = cli.count32("--rounds", cfg.rounds);
        cfg.faultRate = cli.probability("--fault-rate", cfg.faultRate);
        cfg.retryBudget = cli.count32("--retry-budget", cfg.retryBudget);
        cfg.adversarialProbability = cli.probability("--adversarial", cfg.adversarialProbability);
        cfg.crashEvery = cli.count32("--crash-every", cfg.crashEvery);
        cfg.forceInvariantFail = cli.has("--force-invariant-fail");
        cfg.captureEpochs = cli.has("--rtr-dump");
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-soak: %s\n", e.what());
        return 1;
    }
    const bool quiet = cli.has("--quiet");
    const std::uint64_t seeds = cli.count("--seeds", 20);
    const std::uint64_t seedBase = cli.count("--seed-base", 1);
    const std::string stateDir = cli.text("--state-dir");
    const std::string serveAddr = cli.text("--serve");
    const std::string rtrAddr = cli.text("--rtr");
    const std::string flightOut = cli.text("--flight-out");

    // Exported telemetry must be reproducible: the same seed must dump the
    // same bytes. Switch the whole process onto the deterministic logical
    // clock before anything records a timestamp.
    static obs::LogicalTimeSource logicalClock;
    if (cli.has("--metrics-out") || cli.has("--trace-out")) obs::setTimeSource(&logicalClock);
    if (cli.has("--trace-out")) obs::Tracer::global().setEnabled(true);

    // With --metrics-out, --serve or --rtr the runs record into the
    // process-wide registry so alarms, sync telemetry, authority and
    // detector counters all land in the same exposition (a nullptr registry
    // would give each run a private registry that dies with it, and
    // /metrics would show nothing).
    obs::Registry* exportRegistry =
        (cli.has("--metrics-out") || cli.has("--serve") || cli.has("--rtr"))
            ? &obs::Registry::global()
            : nullptr;
    cfg.registry = exportRegistry;

    // Live introspection: enable the global flight recorder (hook sites
    // tee into it), install the fatal-signal postmortem path, publish run
    // progress to the global status board, and start the HTTP server.
    if (!serveAddr.empty() || !flightOut.empty()) {
        obs::FlightRecorder::global().attachMetrics(&obs::Registry::global());
        obs::FlightRecorder::global().setEnabled(true);
    }
    if (!flightOut.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(flightOut, ec);
        if (ec) {
            std::fprintf(stderr, "rpkic-soak: cannot create %s: %s\n", flightOut.c_str(),
                         ec.message().c_str());
            return 1;
        }
        obs::installFlightSignalHandler(flightOut + "/fatal-signal.postmortem");
    }
    // Both servers announce their bound address; SIGINT/SIGTERM release
    // --serve-hold.
    const auto listening = [](bool started, const char* flag, const std::string& addr,
                              const std::string& error, const std::string& banner) {
        if (!started) {
            std::fprintf(stderr, "rpkic-soak: %s %s: %s\n", flag, addr.c_str(), error.c_str());
            return false;
        }
        std::printf("%s\n", banner.c_str());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        return true;
    };
    std::optional<obs::IntrospectionServer> server;
    std::string error;
    if (!serveAddr.empty()) {
        cfg.status = &obs::StatusBoard::global();
        server.emplace();
        const bool started = server->start(serveAddr, &error);
        if (!listening(started, "--serve", serveAddr, error,
                       "introspection server on http://" + server->boundAddress() +
                           "/ (/metrics /healthz /statusz /flightz)")) {
            return 1;
        }
    }

    // Live RTR serving plane: one shared epoch store; every seed's
    // committed rounds publish into it (completion order across parallel
    // seeds) and each publication fans a Serial Notify out to connected
    // caches. The byte-determinism artifact is --rtr-dump, which is
    // captured per seed and written in seed order, independent of the
    // live store.
    std::optional<serve::EpochStore> rtrStore;
    std::optional<serve::RtrServer> rtrServer;
    if (!rtrAddr.empty()) {
        serve::EpochStore::Options storeOptions;
        storeOptions.registry = exportRegistry;
        rtrStore.emplace(storeOptions);
        serve::RtrServer::Options rtrOptions;
        rtrOptions.socket.registry = exportRegistry;
        rtrOptions.core.registry = exportRegistry;
        rtrServer.emplace(*rtrStore, rtrOptions);
        const bool started = rtrServer->start(rtrAddr, &error);
        if (!listening(started, "--rtr", rtrAddr, error,
                       "rtr server on " + rtrServer->boundAddress() + " (RFC 8210 v1)")) {
            return 1;
        }
        cfg.rtrStore = &*rtrStore;
        cfg.onEpochPublished = [&rtrServer] { rtrServer->notify(); };
    }

    // Durable-store state on the real filesystem: one DiskVfs shared by
    // every run (it is stateless), one fresh directory per seed.
    vfs::DiskVfs diskVfs;
    if (!stateDir.empty() && (mode == kSoakReplay ? plan.crashEvery : cfg.crashEvery) == 0) {
        std::fprintf(stderr, "rpkic-soak: --state-dir has no effect without --crash-every N\n");
    }
    const auto applyStateDir = [&](SoakConfig& runCfg) {
        if (stateDir.empty()) return;
        runCfg.stateVfs = &diskVfs;
        runCfg.stateDir = stateDir + "/seed" + std::to_string(runCfg.seed);
        std::error_code ec;
        std::filesystem::remove_all(runCfg.stateDir, ec);  // fresh per run
    };

    // --- run the selected mode ----------------------------------------------
    // Seed sweeps fan out over the worker pool — except the fleet, whose
    // runs fan their member syncs out instead (sequential seeds keep its
    // --metrics-out/--trace-out byte-stable). Every run writes only its
    // own slot and results report in seed order, so the output reads
    // identically at every thread count.
    rc::parallel::Pool& pool = rc::parallel::defaultPool();
    Reporter reporter(cli);
    int rc = 1;
    try {
        if (mode == kSoak) {
            const std::vector<SoakResult> results = pool.parallelMap<SoakResult>(
                static_cast<std::size_t>(seeds), [&](std::size_t s) {
                    SoakConfig runCfg = cfg;
                    runCfg.seed = seedBase + s;
                    applyStateDir(runCfg);
                    return runSoak(runCfg);
                });
            ull hits = 0, absorbed = 0, failedRounds = 0, alarms = 0;
            for (const SoakResult& r : results) {
                reportSoak(reporter, r, quiet);
                hits += r.stats.faultApplications;
                absorbed += r.stats.faultsAbsorbed;
                failedRounds += r.stats.pointRoundsFailed;
                alarms += r.stats.alarms;
            }
            std::printf(
                "soak: %llu/%llu seeds passed  (fault hits=%llu, absorbed=%llu, "
                "point-rounds failed=%llu, alarms=%llu)\n",
                ull(seeds - reporter.failures), ull(seeds), hits, absorbed, failedRounds, alarms);
        } else if (mode == kSweep) {
            // Exhaustive per-VFS-op crash enumeration (sim/crash_sweep.hpp).
            const std::vector<SweepResult> sweeps = pool.parallelMap<SweepResult>(
                static_cast<std::size_t>(seeds), [&](std::size_t s) {
                    SweepConfig sc;
                    sc.seed = seedBase + s;
                    sc.adversarialProbability = cfg.adversarialProbability;
                    return runCrashSweep(sc);
                });
            for (std::uint64_t s = 0; s < seeds; ++s) {
                const SweepResult& r = sweeps[s];
                if (!quiet || !r.passed) {
                    std::printf(
                        "sweep seed %-6llu %s  crash-points=%llu fired=%llu pre=%llu "
                        "post=%llu none=%llu torn-bytes=%llu rounds-resumed=%llu\n",
                        ull(seedBase + s), r.passed ? "ok  " : "FAIL", ull(r.crashPoints),
                        ull(r.crashesFired), ull(r.recoveredPre), ull(r.recoveredPost),
                        ull(r.recoveredNone), ull(r.tornBytes), ull(r.roundsResumed));
                }
                for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
                reporter.add(r.passed, r.postmortems);
            }
            std::printf("crash sweep: %llu/%llu seeds passed\n", ull(seeds - reporter.failures),
                        ull(seeds));
        } else if (mode == kFleet) {
            fleet::FleetConfig fleetCfg;
            fleetCfg.members = cli.count32("--fleet", 0);
            fleetCfg.quorum = cli.count32("--quorum", fleetCfg.members / 2 + 1);
            fleetCfg.epochs = cfg.rounds;
            fleetCfg.retryBudget = cfg.retryBudget;
            fleetCfg.registry = exportRegistry;
            fleetCfg.status = cfg.status;
            fleetCfg.faulty = fleet::MemberFaultSpec::parseSet(cli.text("--faulty-set"));
            for (std::uint64_t s = 0; s < seeds; ++s) {
                fleetCfg.seed = seedBase + s;
                const fleet::FleetResult r = fleet::runFleet(fleetCfg);
                const fleet::FleetStats& fs = r.stats;
                if (!quiet || !r.passed) {
                    std::printf(
                        "fleet seed %-6llu %s  epochs=%llu outputs=%llu unanimous=%llu "
                        "no-quorum=%llu votes=%llu rejected=%llu verdicts=c%llu/s%llu/m%llu "
                        "crashes=%llu restarts=%llu roas=%zu/%zu\n",
                        ull(r.seed), r.passed ? "ok  " : "FAIL", ull(fs.epochs),
                        ull(fs.outputEpochs), ull(fs.unanimousEpochs), ull(fs.noQuorumEpochs),
                        ull(fs.votesCast), ull(fs.votesRejected), ull(fs.verdictsCrashed),
                        ull(fs.verdictsStalled), ull(fs.verdictsMirrorFed), ull(fs.crashes),
                        ull(fs.restarts), fs.finalOutputRoas, fs.twinFinalRoas);
                }
                if (!r.passed) {
                    std::printf("fleet seed %llu VIOLATIONS:\n", ull(r.seed));
                    for (const std::string& v : r.violations) std::printf("  %s\n", v.c_str());
                }
                const std::string transcript = r.transcript.serialize();
                reporter.add(r.passed, r.postmortems,
                             "fleet-fail-seed" + std::to_string(r.seed) + ".transcript",
                             transcript);
                reporter.transcripts += transcript;
            }
            std::printf("fleet: %llu/%llu seeds passed  (N=%u Q=%u)\n",
                        ull(seeds - reporter.failures), ull(seeds), fleetCfg.members,
                        fleetCfg.quorum);
        } else if (mode == kPack) {
            // Attack-zoo mode: every (pack, seed) cell of the grid is an
            // independent task; results print in pack-catalogue then seed
            // order.
            const std::vector<std::string> packs = adversary::resolvePackList(cli.text("--pack"));
            const std::size_t cells = packs.size() * static_cast<std::size_t>(seeds);
            const std::vector<adversary::PackRunResult> runs =
                pool.parallelMap<adversary::PackRunResult>(cells, [&](std::size_t t) {
                    adversary::PackRunConfig runCfg;
                    runCfg.pack = packs[t / seeds];
                    runCfg.seed = seedBase + (t % seeds);
                    runCfg.rounds = cfg.rounds;
                    runCfg.retryBudget = cfg.retryBudget;
                    runCfg.registry = exportRegistry;
                    runCfg.disableDetection = cli.has("--disable-detection");
                    return adversary::runPack(runCfg);
                });
            for (const adversary::PackRunResult& r : runs) reportPack(reporter, r, quiet);
            std::printf("attack zoo: %llu/%llu runs passed  (packs=%zu seeds=%llu)\n",
                        ull(cells - reporter.failures), ull(cells), packs.size(), ull(seeds));
        } else if (mode == kPackReplay) {
            // A pack plan: replay the pack run (delivery faults from the
            // plan, authority script and overlays re-derived from the pack
            // name + seed) and re-judge it against the oracle.
            std::printf("replaying %s: pack=%s seed=%llu rounds=%llu faults=%zu\n",
                        cli.text("--plan").c_str(), plan.pack.c_str(), ull(plan.seed),
                        ull(plan.rounds), plan.faults.size());
            adversary::PackRunConfig overrides;
            overrides.registry = exportRegistry;
            overrides.disableDetection = cli.has("--disable-detection");
            reportPack(reporter, adversary::runPackWithPlan(plan, overrides), /*quiet=*/false);
        } else {
            std::printf("replaying %s: seed=%llu rounds=%llu faults=%zu crash-every=%u\n",
                        cli.text("--plan").c_str(), ull(plan.seed), ull(plan.rounds),
                        plan.faults.size(), plan.crashEvery);
            // Start from cfg so registry/status/epoch wiring (--serve, --rtr,
            // --rtr-dump) applies to replays too; plan-derived fields are
            // restored from the plan inside runSoakWithPlan.
            SoakConfig replayCfg = cfg;
            replayCfg.seed = plan.seed;
            applyStateDir(replayCfg);
            reportSoak(reporter, runSoakWithPlan(plan, replayCfg), /*quiet=*/false);
        }
        rc = reporter.finish();
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-soak: %s\n", e.what());
    }

    // Every exit after the servers started lands here, so --serve-hold can
    // keep the endpoints alive for a scraper.
    if ((server.has_value() || rtrServer.has_value()) && cli.has("--serve-hold")) {
        std::printf("rpkic-soak: run complete; holding %s%s%s (SIGINT/SIGTERM to exit)\n",
                    server.has_value()
                        ? ("introspection server on " + server->boundAddress()).c_str()
                        : "",
                    server.has_value() && rtrServer.has_value() ? " and " : "",
                    rtrServer.has_value() ? ("rtr server on " + rtrServer->boundAddress()).c_str()
                                          : "");
        std::fflush(stdout);
        while (!gStopServing.load()) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (rtrServer.has_value()) rtrServer->stop();
    if (server.has_value()) server->stop();
    return rc;
}
