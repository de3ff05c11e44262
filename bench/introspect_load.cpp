// introspect_load: load-tests the in-process introspection server
// (obs/serve/) against a LIVE workload — a chaos soak keeps instrumenting
// the global registry on a background thread while hundreds of concurrent
// keep-alive HTTP sessions scrape /metrics, /statusz and /healthz.
//
// What it demonstrates (the PR's acceptance bar):
//   * the poll()-based server sustains >= 256 concurrently-open
//     keep-alive sessions from one thread;
//   * every sampled /metrics body is lint-clean (lintPrometheus) even
//     though writers race the scrape — Registry::snapshot() is torn-read
//     free by construction;
//   * request latency stays interactive (p50/p99 reported, and written
//     to BENCH_introspect.json for CI trend tracking).
//
//   introspect_load [--sessions N] [--requests N] [--threads T]
//                   [--json-out FILE]
//
// Defaults: 256 sessions, 20 requests per session, 16 client threads
// (each thread keeps sessions/threads connections open and round-robins
// requests across them, so all N sessions are concurrently established).
// Exit status: 0 on success, 1 on socket errors / non-200 responses /
// lint problems.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/serve/introspect.hpp"
#include "sim/chaos_soak.hpp"

namespace {

using namespace rpkic;

/// One keep-alive client connection to 127.0.0.1:port.
struct Conn {
    int fd = -1;

    bool open(std::uint16_t port) {
        fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return false;
        int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
            ::close(fd);
            fd = -1;
            return false;
        }
        return true;
    }

    void shut() {
        if (fd >= 0) ::close(fd);
        fd = -1;
    }

    /// Sends one GET and reads one Content-Length-framed response.
    /// Returns the HTTP status (0 on transport error).
    int get(const std::string& path, std::string* body) {
        const std::string req = "GET " + path +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                                "Connection: keep-alive\r\n\r\n";
        std::size_t sent = 0;
        while (sent < req.size()) {
            const ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
            if (n <= 0) return 0;
            sent += static_cast<std::size_t>(n);
        }
        std::string buf;
        std::size_t headerEnd = std::string::npos;
        char chunk[16384];
        while ((headerEnd = buf.find("\r\n\r\n")) == std::string::npos) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) return 0;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        const std::size_t lenPos = buf.find("Content-Length: ");
        if (lenPos == std::string::npos || lenPos > headerEnd) return 0;
        const std::size_t lenAt = lenPos + 16;
        std::size_t bodyLen = 0;
        try {
            bodyLen = parseU64(buf.substr(lenAt, buf.find("\r\n", lenAt) - lenAt),
                               "Content-Length");
        } catch (const ParseError&) {
            return 0;
        }
        const std::size_t bodyStart = headerEnd + 4;
        while (buf.size() < bodyStart + bodyLen) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) return 0;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        *body = buf.substr(bodyStart, bodyLen);
        if (buf.rfind("HTTP/", 0) != 0) return 0;
        try {
            return static_cast<int>(parseU32(buf.substr(buf.find(' ') + 1, 3), "HTTP status"));
        } catch (const ParseError&) {
            return 0;
        }
    }
};

}  // namespace

int main(int argc, char** argv) {
    int sessions = 256;
    int requestsPerSession = 20;
    int threads = 16;
    std::string jsonOut;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions" && i + 1 < argc) {
            sessions = static_cast<int>(bench::flagU64(argv[++i], "--sessions"));
        } else if (arg == "--requests" && i + 1 < argc) {
            requestsPerSession = static_cast<int>(bench::flagU64(argv[++i], "--requests"));
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<int>(bench::flagU64(argv[++i], "--threads"));
        } else if (arg == "--json-out" && i + 1 < argc) {
            jsonOut = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: introspect_load [--sessions N] [--requests N] "
                         "[--threads T] [--json-out FILE]\n");
            return 1;
        }
    }
    if (sessions < 1 || requestsPerSession < 1 || threads < 1) return 1;
    threads = std::min(threads, sessions);

    bench::heading("introspection server under concurrent scrape load");

    // The live workload being observed: short soaks loop on a background
    // thread, instrumenting the same global registry the scrapers read.
    obs::FlightRecorder::global().attachMetrics(&obs::Registry::global());
    obs::FlightRecorder::global().setEnabled(true);
    std::atomic<bool> stopSoak{false};
    std::thread soaker([&] {
        std::uint64_t seed = 1;
        while (!stopSoak.load()) {
            sim::SoakConfig cfg;
            cfg.seed = seed++;
            cfg.rounds = 8;
            cfg.registry = &obs::Registry::global();
            cfg.status = &obs::StatusBoard::global();
            (void)sim::runSoak(cfg);
        }
    });

    obs::IntrospectionServer server;
    std::string error;
    if (!server.start("127.0.0.1:0", &error)) {
        std::fprintf(stderr, "introspect_load: %s\n", error.c_str());
        stopSoak.store(true);
        soaker.join();
        return 1;
    }
    const std::uint16_t port = server.port();
    std::printf("server: %s, sessions=%d, requests/session=%d, client threads=%d\n",
                server.boundAddress().c_str(), sessions, requestsPerSession, threads);

    // Phase 1: establish every session up front (all concurrently open).
    std::vector<Conn> conns(static_cast<std::size_t>(sessions));
    for (auto& c : conns) {
        if (!c.open(port)) {
            std::fprintf(stderr, "introspect_load: connect failed (%s)\n",
                         std::strerror(errno));
            for (auto& d : conns) d.shut();
            server.stop();
            stopSoak.store(true);
            soaker.join();
            return 1;
        }
    }

    // Phase 2: scrape. Each thread owns a contiguous slice of sessions
    // and round-robins requests across them; /metrics dominates with
    // /statusz and /healthz mixed in like a real scraper fleet.
    std::mutex mergeMutex;
    std::vector<double> latenciesMs;
    std::atomic<int> failures{0};
    std::atomic<int> lintProblems{0};
    std::atomic<std::uint64_t> bytesRead{0};
    std::vector<std::thread> clients;
    clients.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
        clients.emplace_back([&, t] {
            const int lo = t * sessions / threads;
            const int hi = (t + 1) * sessions / threads;
            std::vector<double> local;
            std::string body;
            for (int round = 0; round < requestsPerSession; ++round) {
                for (int s = lo; s < hi; ++s) {
                    const char* path = (round % 8 == 6)   ? "/statusz"
                                       : (round % 8 == 7) ? "/healthz"
                                                          : "/metrics";
                    const auto start = std::chrono::steady_clock::now();
                    const int status = conns[static_cast<std::size_t>(s)].get(path, &body);
                    const auto end = std::chrono::steady_clock::now();
                    if (status != 200) {
                        failures.fetch_add(1);
                        continue;
                    }
                    bytesRead.fetch_add(body.size());
                    local.push_back(
                        std::chrono::duration<double, std::milli>(end - start).count());
                    // Sample-lint: the first /metrics body every session
                    // pulls must be exposition-clean mid-instrumentation.
                    if (round == 0) {
                        const auto problems = obs::lintPrometheus(body);
                        if (!problems.empty()) {
                            lintProblems.fetch_add(static_cast<int>(problems.size()));
                            std::fprintf(stderr, "lint: %s\n", problems.front().c_str());
                        }
                    }
                }
            }
            const std::lock_guard<std::mutex> lock(mergeMutex);
            latenciesMs.insert(latenciesMs.end(), local.begin(), local.end());
        });
    }
    for (auto& c : clients) c.join();
    for (auto& c : conns) c.shut();

    const std::uint64_t served = server.requestsServed();
    server.stop();
    stopSoak.store(true);
    soaker.join();

    std::sort(latenciesMs.begin(), latenciesMs.end());
    const auto pct = [&](double p) -> double {
        if (latenciesMs.empty()) return 0.0;
        const auto idx = static_cast<std::size_t>(p * static_cast<double>(latenciesMs.size() - 1));
        return latenciesMs[idx];
    };
    const double p50 = pct(0.50);
    const double p99 = pct(0.99);

    bench::subheading("results");
    bench::row({"metric", "value"});
    bench::separator(2);
    bench::row({"sessions", std::to_string(sessions)});
    bench::row({"requests ok", std::to_string(latenciesMs.size())});
    bench::row({"requests failed", std::to_string(failures.load())});
    bench::row({"server requests", std::to_string(served)});
    bench::row({"bytes read", std::to_string(bytesRead.load())});
    bench::row({"lint problems", std::to_string(lintProblems.load())});
    bench::row({"latency p50 (ms)", bench::num(p50, 3)});
    bench::row({"latency p99 (ms)", bench::num(p99, 3)});

    if (!jsonOut.empty()) {
        std::ofstream out(jsonOut, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "introspect_load: cannot write %s\n", jsonOut.c_str());
            return 1;
        }
        char buf[512];
        std::snprintf(buf, sizeof buf,
                      "{\n  \"bench\": \"introspect_load\",\n"
                      "  \"sessions\": %d,\n  \"requests_per_session\": %d,\n"
                      "  \"client_threads\": %d,\n  \"requests_ok\": %zu,\n"
                      "  \"requests_failed\": %d,\n  \"lint_problems\": %d,\n"
                      "  \"p50_ms\": %.3f,\n  \"p99_ms\": %.3f\n}\n",
                      sessions, requestsPerSession, threads, latenciesMs.size(),
                      failures.load(), lintProblems.load(), p50, p99);
        out << buf;
        std::printf("\njson written to %s\n", jsonOut.c_str());
    }

    return (failures.load() == 0 && lintProblems.load() == 0) ? 0 : 1;
}
