// rpkic-detector: the paper's §4.1 downgrade detector as a command-line
// tool, in the spirit of the authors' released RPKI_Downgrade_Detector.
//
//   rpkic-detector PREV.state CUR.state [--examples N] [--quiet]
//                  [--threads N] [--metrics-out FILE] [--trace-out FILE]
//                  [--serve ADDR:PORT] [--serve-hold]
//
// --metrics-out writes the Prometheus text exposition of the rc_detector_*
// metrics after the diff (index build/diff timings on the deterministic
// logical clock, downgrade counts by kind); --trace-out writes the span
// trace as Chrome trace-event JSON (load in Perfetto).
//
// --serve exposes the live introspection endpoints (/metrics, /healthz,
// /statusz, /flightz) for the duration of the run; --serve-hold keeps
// them up after the diff completes until SIGINT/SIGTERM, so a scraper can
// read the final counters (port 0 picks an ephemeral port; the bound
// address is printed).
//
// --rtr publishes the two snapshots as consecutive RTR epochs (PREV =
// serial 0, CUR = serial 1) and serves them over the RFC 8210 v1 wire
// protocol: a cache connecting with a Reset Query gets the CUR snapshot;
// one holding serial 0 gets exactly the announce/withdraw delta the
// downgrade report was computed from. Implies holding until
// SIGINT/SIGTERM (like --serve-hold). See docs/SERVING.md.
//
// --threads N (or the RC_THREADS env var; the flag wins) sizes the worker
// pool the index build and diff run on; "0" means all hardware threads.
// The report is byte-identical at every thread count.
//
// State files hold one "prefix[-maxLength] ASN" tuple per line (the valid
// ROAs of an RPKI snapshot, e.g. produced by a validator run). The tool
// diffs the two snapshots over the space of ALL possible routes and prints
// the downgrade report. Exit status: 0 = no downgrades, 2 = downgrades
// detected (so it can gate a monitoring pipeline), 1 = usage/parse error.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "detector/diff.hpp"
#include "detector/state_io.hpp"
#include "obs/flight/recorder.hpp"
#include "obs/obs.hpp"
#include "obs/parallel_metrics.hpp"
#include "obs/serve/introspect.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"
#include "util/errors.hpp"
#include "util/parallel.hpp"
#include "util/parse.hpp"

using namespace rpkic;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: rpkic-detector PREV.state CUR.state [--examples N] [--quiet]\n"
                 "                      [--threads N] [--metrics-out FILE] [--trace-out FILE]\n"
                 "                      [--serve ADDR:PORT] [--serve-hold] [--rtr ADDR:PORT]\n"
                 "  state file format: one 'prefix[-maxLength] ASN' per line, '#' comments\n"
                 "  --rtr ADDR:PORT: serve PREV/CUR as RTR epochs 0/1 (RFC 8210 v1) and\n"
                 "               hold until SIGINT/SIGTERM (port 0 = ephemeral)\n"
                 "  --threads N: worker pool size (0 = all hardware threads); overrides\n"
                 "               the RC_THREADS env var. Reports are byte-identical at\n"
                 "               every thread count.\n");
    return 1;
}

bool writeFileOrComplain(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "rpkic-detector: cannot write %s\n", path.c_str());
        return false;
    }
    out << content;
    return true;
}

std::atomic<bool> gStopServing{false};

extern "C" void onStopSignal(int) { gStopServing.store(true); }

}  // namespace

int main(int argc, char** argv) {
    std::string prevPath;
    std::string curPath;
    std::size_t examples = 8;
    bool quiet = false;
    std::string metricsOut;
    std::string traceOut;
    std::string threadSpec;
    std::string serveAddr;
    std::string rtrAddr;
    bool serveHold = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--examples" && i + 1 < argc) {
                examples = static_cast<std::size_t>(parseU64(argv[++i], "--examples"));
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (arg == "--threads" && i + 1 < argc) {
                threadSpec = argv[++i];
            } else if (arg == "--metrics-out" && i + 1 < argc) {
                metricsOut = argv[++i];
            } else if (arg == "--trace-out" && i + 1 < argc) {
                traceOut = argv[++i];
            } else if (arg == "--serve" && i + 1 < argc) {
                serveAddr = argv[++i];
            } else if (arg == "--rtr" && i + 1 < argc) {
                rtrAddr = argv[++i];
            } else if (arg == "--serve-hold") {
                serveHold = true;
            } else if (prevPath.empty()) {
                prevPath = arg;
            } else if (curPath.empty()) {
                curPath = arg;
            } else {
                return usage();
            }
        }
    } catch (const ParseError& e) {
        std::fprintf(stderr, "rpkic-detector: %s\n", e.what());
        return 1;
    }
    if (prevPath.empty() || curPath.empty()) return usage();

    // Deterministic telemetry: identical inputs must dump identical bytes.
    static obs::LogicalTimeSource logicalClock;
    if (!metricsOut.empty() || !traceOut.empty()) obs::setTimeSource(&logicalClock);
    if (!traceOut.empty()) obs::Tracer::global().setEnabled(true);

    std::optional<obs::IntrospectionServer> server;
    if (!serveAddr.empty()) {
        obs::FlightRecorder::global().attachMetrics(&obs::Registry::global());
        obs::FlightRecorder::global().setEnabled(true);
        server.emplace();
        std::string error;
        if (!server->start(serveAddr, &error)) {
            std::fprintf(stderr, "rpkic-detector: --serve %s: %s\n", serveAddr.c_str(),
                         error.c_str());
            return 1;
        }
        std::printf("introspection server on http://%s/\n", server->boundAddress().c_str());
        std::fflush(stdout);
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
        obs::StatusBoard::global().set("detector/prev", prevPath);
        obs::StatusBoard::global().set("detector/cur", curPath);
        obs::StatusBoard::global().set("detector/state", "running");
    }
    std::optional<serve::EpochStore> rtrStore;
    std::optional<serve::RtrServer> rtrServer;
    if (!rtrAddr.empty()) {
        std::signal(SIGINT, onStopSignal);
        std::signal(SIGTERM, onStopSignal);
    }
    const auto finish = [&](int rc) -> int {
        if (server.has_value()) {
            obs::StatusBoard::global().set("detector/state",
                                           rc == 0   ? "done"
                                           : rc == 2 ? "downgrades"
                                                     : "error");
        }
        const bool holdRtr = rtrServer.has_value() && rtrServer->running() && rc != 1;
        if ((server.has_value() && serveHold) || holdRtr) {
            std::printf("rpkic-detector: holding %s%s%s (SIGINT/SIGTERM to exit)\n",
                        server.has_value() ? "introspection server" : "",
                        server.has_value() && holdRtr ? " + " : "",
                        holdRtr ? "rtr server" : "");
            std::fflush(stdout);
            while (!gStopServing.load()) {
                std::this_thread::sleep_for(std::chrono::milliseconds(100));
            }
        }
        if (rtrServer.has_value()) rtrServer->stop();
        if (server.has_value()) server->stop();
        return rc;
    };

    try {
        // --threads overrides RC_THREADS, which the default pool otherwise
        // honors. The obs adapter feeds the rc_parallel_* metric family.
        const std::size_t threads = threadSpec.empty()
                                        ? rc::parallel::defaultThreadCount()
                                        : rc::parallel::parseThreadSpec(threadSpec);
        rc::parallel::configureDefaultPool(threads, &obs::parallelMetricsObserver());
        const RpkiState prev = loadStateFile(prevPath);
        const RpkiState cur = loadStateFile(curPath);
        if (!rtrAddr.empty()) {
            serve::EpochStore::Options storeOpts;
            storeOpts.registry = &obs::Registry::global();
            rtrStore.emplace(storeOpts);
            rtrStore->publish(1, std::make_shared<const RpkiState>(prev));
            rtrStore->publish(2, std::make_shared<const RpkiState>(cur));
            serve::RtrServer::Options rtrOpts;
            rtrOpts.socket.registry = &obs::Registry::global();
            rtrOpts.core.registry = &obs::Registry::global();
            rtrServer.emplace(*rtrStore, rtrOpts);
            std::string error;
            if (!rtrServer->start(rtrAddr, &error)) {
                std::fprintf(stderr, "rpkic-detector: --rtr %s: %s\n", rtrAddr.c_str(),
                             error.c_str());
                return finish(1);
            }
            std::printf("rtr server on %s (RFC 8210 v1, serials 0 -> 1)\n",
                        rtrServer->boundAddress().c_str());
            std::fflush(stdout);
        }
        const DowngradeReport report = diffStates(prev, cur, examples);

        std::printf("states: %zu -> %zu ROA tuples\n", prev.size(), cur.size());
        std::printf("valid->invalid pairs:   %llu\n",
                    static_cast<unsigned long long>(report.validToInvalidPairs));
        std::printf("valid->unknown pairs:   %llu\n",
                    static_cast<unsigned long long>(report.validToUnknownPairs));
        std::printf("unknown->invalid pairs: %llu\n",
                    static_cast<unsigned long long>(report.unknownToInvalidPairs));
        std::printf("unknown->valid pairs:   %llu\n",
                    static_cast<unsigned long long>(report.unknownToValidPairs));
        std::printf("invalid addresses:      %llu -> %llu\n",
                    static_cast<unsigned long long>(report.invalidAddressesBefore),
                    static_cast<unsigned long long>(report.invalidAddressesAfter));

        if (!quiet) {
            for (const auto& t : report.tupleTransitions) {
                std::printf("%s route %s: %s -> %s\n",
                            t.isDowngrade() ? "DOWNGRADE" : "change   ",
                            t.route.str().c_str(), std::string(toString(t.before)).c_str(),
                            std::string(toString(t.after)).c_str());
            }
            for (const auto& as : report.perAs) {
                if (as.exampleLostValid.empty()) continue;
                std::printf("AS%u lost validity for:", as.asn);
                for (const auto& p : as.exampleLostValid) {
                    std::printf(" %s", p.str().c_str());
                }
                std::printf("\n");
            }
            for (const auto& c : report.competingRoas) {
                std::printf("COMPETING ROA: %s contests %s\n", c.added.str().c_str(),
                            c.existing.str().c_str());
            }
        }
        if (!metricsOut.empty() &&
            !writeFileOrComplain(metricsOut, obs::Registry::global().renderPrometheus())) {
            return finish(1);
        }
        if (!traceOut.empty() &&
            !writeFileOrComplain(traceOut, obs::Tracer::global().renderChromeTrace())) {
            return finish(1);
        }
        return finish(report.hasDowngrades() ? 2 : 0);
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-detector: %s\n", e.what());
        return finish(1);
    }
}
