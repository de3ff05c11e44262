// rtr_load: load-tests the RTR serving plane (src/serve/) with a large
// simulated cache fleet, and optionally with real TCP sessions.
//
// The simulated mode drives 100k+ cache sessions through RtrCore's
// bytes-in/bytes-out state machine — the identical code path the socket
// server runs, minus the file descriptors, which is what makes six-digit
// session counts tractable in CI. The fleet is deliberately skewed the
// way production RTR fleets are:
//   * poll cadence is Zipf-ish: most caches poll every epoch, a long
//     tail sleeps through 2..64 epochs and accumulates lag (the laggards
//     beyond the epoch ring's capacity are forced through Cache Reset +
//     full snapshot — the delta-vs-reset comparison below);
//   * a small fraction of sessions "crashes" after any poll and comes
//     back cold (Reset Query), modelling cache restarts;
//   * arrival is staggered: sessions first appear spread across epochs.
//
// What it demonstrates (the PR's acceptance bar):
//   * >= 100k simulated sessions complete with zero protocol errors;
//   * per-query service latency stays in microseconds (p50/p99 reported);
//   * incremental deltas beat reset-every-poll on bytes-on-wire by a
//     large factor (the reason RFC 8210 has Serial Query at all).
//
//   rtr_load [--sessions N] [--epochs N] [--tuples N] [--ring N]
//            [--seed S] [--tcp [--tcp-sessions N] [--threads T]]
//            [--json-out FILE]
//
// Defaults: 100000 sessions, 48 epochs over a 10000-tuple VRP set with
// ~1% churn per epoch, ring capacity 24. --tcp adds a real-socket smoke
// pass (default 1024 concurrent connections) against RtrServer. Exit
// status: 0 on success, 1 on any protocol or transport error.
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
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"

namespace {

using namespace rpkic;

// ---------------------------------------------------------------------------
// Deterministic synthetic VRP evolution

/// A seeded world of N tuples with per-epoch churn: each epoch withdraws
/// and announces ~churn*N tuples. Prefixes are spread over 10.0.0.0/8
/// and 2001:db8::/32 so both PDU encodings are exercised.
class VrpWorld {
public:
    VrpWorld(std::uint64_t seed, std::size_t tuples) : rng_(seed) {
        for (std::size_t i = 0; i < tuples; ++i) next_.push_back(makeTuple());
    }

    std::shared_ptr<const RpkiState> step(double churn) {
        const auto churned = static_cast<std::size_t>(
            churn * static_cast<double>(next_.size()));
        for (std::size_t i = 0; i < churned && !next_.empty(); ++i) {
            next_[rng_() % next_.size()] = makeTuple();
        }
        return std::make_shared<const RpkiState>(next_);
    }

private:
    RoaTuple makeTuple() {
        RoaTuple t;
        if (rng_() % 4 != 0) {
            const auto addr = static_cast<std::uint32_t>(
                0x0a000000u | (rng_() & 0x00ffff00u));
            t.prefix = IpPrefix::v4(addr, 24);
            t.maxLength = 24 + static_cast<std::uint8_t>(rng_() % 9);
        } else {
            U128 addr{0x20010db800000000ull | ((rng_() & 0xffffu) << 16), 0};
            t.prefix = IpPrefix::v6(addr, 48);
            t.maxLength = 48 + static_cast<std::uint8_t>(rng_() % 17);
        }
        t.asn = 64500 + static_cast<Asn>(rng_() % 1000);
        return t;
    }

    std::mt19937_64 rng_;
    std::vector<RoaTuple> next_;
};

// ---------------------------------------------------------------------------
// Simulated cache fleet

struct SimSession {
    std::uint32_t serial = 0;
    bool synced = false;       ///< false = next poll is a Reset Query
    std::uint32_t period = 1;  ///< polls every `period` epochs
    std::uint32_t phase = 0;
    std::uint32_t bornEpoch = 0;  ///< staggered arrival
};

struct FleetStats {
    std::uint64_t polls = 0;
    std::uint64_t deltaResponses = 0;
    std::uint64_t snapshotResponses = 0;
    std::uint64_t cacheResets = 0;
    std::uint64_t reconnects = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t wireBytes = 0;          ///< bytes actually queued
    std::uint64_t deltaBytes = 0;         ///< prefix-PDU bytes in delta responses
    std::uint64_t snapshotBytes = 0;      ///< prefix-PDU bytes in snapshot responses
    std::uint64_t allResetBytes = 0;      ///< counterfactual: snapshot every poll
    std::vector<double> latenciesUs;
};

/// Zipf-ish poll period: 1 with p=1/2, 2 with p=1/4, ... up to 64.
std::uint32_t skewedPeriod(std::mt19937_64& rng) {
    std::uint32_t period = 1;
    while (period < 64 && (rng() & 1) != 0) period *= 2;
    return period;
}

bool pollOnce(serve::RtrCore& core, const serve::EpochStore& store, SimSession& session,
              std::mt19937_64& rng, FleetStats& stats) {
    std::string in, out;
    if (session.synced) {
        serve::appendSerialQuery(in, store.sessionId(), session.serial);
    } else {
        serve::appendResetQuery(in);
    }
    const auto start = std::chrono::steady_clock::now();
    const bool keep = core.consume(in, out);
    const auto end = std::chrono::steady_clock::now();
    stats.latenciesUs.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
    ++stats.polls;
    stats.wireBytes += out.size();

    const auto current = store.current();
    stats.allResetBytes += 8 + current->snapshotPdus.size() + 24;
    serve::PduHeader header;
    if (!keep || !serve::peekPduHeader(out, &header)) {
        ++stats.protocolErrors;
        return false;
    }
    switch (static_cast<serve::PduType>(header.type)) {
        case serve::PduType::CacheResponse:
            if (session.synced) {
                ++stats.deltaResponses;
                stats.deltaBytes += out.size() - 8 - 24;
            } else {
                ++stats.snapshotResponses;
                stats.snapshotBytes += out.size() - 8 - 24;
            }
            session.serial = current->serial;
            session.synced = true;
            break;
        case serve::PduType::CacheReset:
            // Evicted laggard: drop state and reconnect cold, this poll.
            ++stats.cacheResets;
            session.synced = false;
            return pollOnce(core, store, session, rng, stats);
        default:
            ++stats.protocolErrors;
            return false;
    }
    // Crash-and-restart tail: the cache loses its state after this poll.
    if (rng() % 64 == 0) {
        session.synced = false;
        ++stats.reconnects;
    }
    return true;
}

// ---------------------------------------------------------------------------
// Real-socket smoke pass

struct TcpStats {
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> errors{0};
    std::vector<double> latenciesUs;
    std::mutex mergeMutex;
};

/// One blocking RTR exchange: send `query`, read PDUs until End of Data /
/// Cache Reset / Error Report. Returns false on transport/protocol error.
bool exchange(int fd, const std::string& query, bool* sawEndOfData) {
    std::size_t sent = 0;
    while (sent < query.size()) {
        const ssize_t n = ::send(fd, query.data() + sent, query.size() - sent, 0);
        if (n <= 0) return false;
        sent += static_cast<std::size_t>(n);
    }
    std::string buf;
    char chunk[16384];
    while (true) {
        serve::PduHeader header;
        while (!serve::peekPduHeader(buf, &header) || buf.size() < header.length) {
            const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
            if (n <= 0) return false;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        const auto type = static_cast<serve::PduType>(header.type);
        buf.erase(0, header.length);
        if (type == serve::PduType::EndOfData) {
            *sawEndOfData = true;
            if (buf.empty()) return true;
        } else if (type == serve::PduType::CacheReset ||
                   type == serve::PduType::ErrorReport) {
            return false;
        }
    }
}

int runTcpSmoke(serve::EpochStore& store, int tcpSessions, int threads,
                TcpStats& stats) {
    serve::RtrServer::Options options;
    options.socket.maxSessions = static_cast<std::size_t>(tcpSessions) + 8;
    serve::RtrServer srv(store, options);
    std::string error;
    if (!srv.start("127.0.0.1:0", &error)) {
        std::fprintf(stderr, "rtr_load: --tcp start: %s\n", error.c_str());
        return 1;
    }
    const std::uint16_t port = srv.port();

    std::vector<std::thread> workers;
    const int perThread = (tcpSessions + threads - 1) / threads;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            std::vector<double> local;
            const int lo = t * perThread;
            const int hi = std::min(tcpSessions, lo + perThread);
            std::vector<int> fds;
            for (int s = lo; s < hi; ++s) {
                const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
                if (fd < 0) {
                    stats.errors.fetch_add(1);
                    continue;
                }
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
                sockaddr_in addr{};
                addr.sin_family = AF_INET;
                addr.sin_port = htons(port);
                addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
                if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
                    stats.errors.fetch_add(1);
                    ::close(fd);
                    continue;
                }
                fds.push_back(fd);
            }
            // All sessions connected and held open concurrently; now each
            // does a full reset sync followed by a current-serial poll.
            for (const int fd : fds) {
                std::string query;
                serve::appendResetQuery(query);
                bool gotEod = false;
                if (!exchange(fd, query, &gotEod) || !gotEod) {
                    stats.errors.fetch_add(1);
                    continue;
                }
                query.clear();
                serve::appendSerialQuery(query, store.sessionId(),
                                         store.current()->serial);
                gotEod = false;
                const auto start = std::chrono::steady_clock::now();
                const bool ok = exchange(fd, query, &gotEod);
                const auto end = std::chrono::steady_clock::now();
                if (!ok || !gotEod) {
                    stats.errors.fetch_add(1);
                    continue;
                }
                stats.ok.fetch_add(1);
                local.push_back(
                    std::chrono::duration<double, std::micro>(end - start).count());
            }
            for (const int fd : fds) ::close(fd);
            const std::lock_guard<std::mutex> lock(stats.mergeMutex);
            stats.latenciesUs.insert(stats.latenciesUs.end(), local.begin(), local.end());
        });
    }
    for (auto& w : workers) w.join();
    srv.stop();
    return 0;
}

double percentile(std::vector<double>& sorted, double p) {
    if (sorted.empty()) return 0.0;
    const auto idx =
        static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
    return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
    long sessions = 100000;
    long epochs = 48;
    long tuples = 10000;
    long ring = 24;
    std::uint64_t seed = 1;
    bool tcp = false;
    long tcpSessions = 1024;
    long threads = 16;
    std::string jsonOut;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions" && i + 1 < argc) {
            sessions = static_cast<long>(bench::flagU64(argv[++i], "--sessions"));
        } else if (arg == "--epochs" && i + 1 < argc) {
            epochs = static_cast<long>(bench::flagU64(argv[++i], "--epochs"));
        } else if (arg == "--tuples" && i + 1 < argc) {
            tuples = static_cast<long>(bench::flagU64(argv[++i], "--tuples"));
        } else if (arg == "--ring" && i + 1 < argc) {
            ring = static_cast<long>(bench::flagU64(argv[++i], "--ring"));
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = bench::flagU64(argv[++i], "--seed");
        } else if (arg == "--tcp") {
            tcp = true;
        } else if (arg == "--tcp-sessions" && i + 1 < argc) {
            tcpSessions = static_cast<long>(bench::flagU64(argv[++i], "--tcp-sessions"));
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = static_cast<long>(bench::flagU64(argv[++i], "--threads"));
        } else if (arg == "--json-out" && i + 1 < argc) {
            jsonOut = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: rtr_load [--sessions N] [--epochs N] [--tuples N]\n"
                         "                [--ring N] [--seed S] [--tcp]\n"
                         "                [--tcp-sessions N] [--threads T]\n"
                         "                [--json-out FILE]\n");
            return 1;
        }
    }

    bench::heading("rtr_load: RTR serving plane under a skewed cache fleet");
    std::printf("sessions=%ld epochs=%ld tuples=%ld ring=%ld seed=%llu\n", sessions,
                epochs, tuples, ring, static_cast<unsigned long long>(seed));

    serve::EpochStore::Options storeOptions;
    storeOptions.capacity = static_cast<std::size_t>(ring);
    serve::EpochStore store(storeOptions);
    serve::RtrCore core(store);
    VrpWorld world(seed, static_cast<std::size_t>(tuples));
    store.publish(1, world.step(0.0));

    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<SimSession> fleet(static_cast<std::size_t>(sessions));
    for (SimSession& s : fleet) {
        s.period = skewedPeriod(rng);
        s.phase = static_cast<std::uint32_t>(rng() % s.period);
        s.bornEpoch = static_cast<std::uint32_t>(rng() % static_cast<std::uint64_t>(
                          std::max(1l, epochs / 4)));
    }

    FleetStats stats;
    stats.latenciesUs.reserve(static_cast<std::size_t>(sessions) * 2);
    const bench::Stopwatch wall;
    for (long e = 0; e < epochs; ++e) {
        store.publish(static_cast<std::uint64_t>(e) + 2, world.step(0.01));
        const auto epoch = static_cast<std::uint32_t>(e);
        for (SimSession& s : fleet) {
            if (epoch < s.bornEpoch) continue;
            if ((epoch - s.bornEpoch) % s.period != s.phase % s.period) continue;
            if (!pollOnce(core, store, s, rng, stats)) break;
        }
    }
    const double wallSeconds = wall.elapsedSeconds();

    std::sort(stats.latenciesUs.begin(), stats.latenciesUs.end());
    const double p50 = percentile(stats.latenciesUs, 0.50);
    const double p99 = percentile(stats.latenciesUs, 0.99);
    const double savings =
        stats.allResetBytes == 0
            ? 0.0
            : 1.0 - static_cast<double>(stats.wireBytes) /
                        static_cast<double>(stats.allResetBytes);

    bench::subheading("simulated fleet");
    bench::row({"metric", "value"});
    bench::separator(2);
    bench::row({"sessions", std::to_string(sessions)});
    bench::row({"polls", std::to_string(stats.polls)});
    bench::row({"delta resp", std::to_string(stats.deltaResponses)});
    bench::row({"snapshot resp", std::to_string(stats.snapshotResponses)});
    bench::row({"cache resets", std::to_string(stats.cacheResets)});
    bench::row({"reconnects", std::to_string(stats.reconnects)});
    bench::row({"protocol errors", std::to_string(stats.protocolErrors)});
    bench::row({"wire bytes", std::to_string(stats.wireBytes)});
    bench::row({"all-reset bytes", std::to_string(stats.allResetBytes)});
    bench::row({"delta savings", bench::percent(savings, 1)});
    bench::row({"latency p50 (us)", bench::num(p50, 2)});
    bench::row({"latency p99 (us)", bench::num(p99, 2)});
    bench::row({"wall (s)", bench::num(wallSeconds, 2)});

    int tcpRc = 0;
    TcpStats tcpStats;
    double tcpP50 = 0.0, tcpP99 = 0.0;
    if (tcp) {
        bench::subheading("tcp smoke");
        tcpRc = runTcpSmoke(store, static_cast<int>(tcpSessions),
                            static_cast<int>(threads), tcpStats);
        std::sort(tcpStats.latenciesUs.begin(), tcpStats.latenciesUs.end());
        tcpP50 = percentile(tcpStats.latenciesUs, 0.50);
        tcpP99 = percentile(tcpStats.latenciesUs, 0.99);
        bench::row({"tcp sessions", std::to_string(tcpSessions)});
        bench::row({"tcp ok", std::to_string(tcpStats.ok.load())});
        bench::row({"tcp errors", std::to_string(tcpStats.errors.load())});
        bench::row({"tcp p50 (us)", bench::num(tcpP50, 2)});
        bench::row({"tcp p99 (us)", bench::num(tcpP99, 2)});
    }

    if (!jsonOut.empty()) {
        std::ofstream out(jsonOut, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "rtr_load: cannot write %s\n", jsonOut.c_str());
            return 1;
        }
        char buf[1024];
        std::snprintf(
            buf, sizeof buf,
            "{\n  \"bench\": \"rtr_load\",\n"
            "  \"sessions\": %ld,\n  \"epochs\": %ld,\n  \"tuples\": %ld,\n"
            "  \"ring\": %ld,\n  \"polls\": %llu,\n"
            "  \"delta_responses\": %llu,\n  \"snapshot_responses\": %llu,\n"
            "  \"cache_resets\": %llu,\n  \"reconnects\": %llu,\n"
            "  \"protocol_errors\": %llu,\n  \"wire_bytes\": %llu,\n"
            "  \"all_reset_bytes\": %llu,\n  \"delta_savings\": %.4f,\n"
            "  \"p50_us\": %.2f,\n  \"p99_us\": %.2f,\n"
            "  \"tcp_sessions\": %ld,\n  \"tcp_ok\": %llu,\n"
            "  \"tcp_errors\": %llu,\n  \"tcp_p50_us\": %.2f,\n"
            "  \"tcp_p99_us\": %.2f\n}\n",
            sessions, epochs, tuples, ring,
            static_cast<unsigned long long>(stats.polls),
            static_cast<unsigned long long>(stats.deltaResponses),
            static_cast<unsigned long long>(stats.snapshotResponses),
            static_cast<unsigned long long>(stats.cacheResets),
            static_cast<unsigned long long>(stats.reconnects),
            static_cast<unsigned long long>(stats.protocolErrors),
            static_cast<unsigned long long>(stats.wireBytes),
            static_cast<unsigned long long>(stats.allResetBytes), savings, p50, p99,
            tcp ? tcpSessions : 0,
            static_cast<unsigned long long>(tcpStats.ok.load()),
            static_cast<unsigned long long>(tcpStats.errors.load()), tcpP50, tcpP99);
        out << buf;
        std::printf("\njson written to %s\n", jsonOut.c_str());
    }

    const bool ok = stats.protocolErrors == 0 && tcpRc == 0 &&
                    (!tcp || tcpStats.errors.load() == 0);
    return ok ? 0 : 1;
}
