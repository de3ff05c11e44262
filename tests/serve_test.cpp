// Introspection serving plane (src/obs/serve/): address parsing, the
// poll()-based HTTP server's protocol behaviour over real sockets
// (status codes, keep-alive, HEAD, malformed input), the StatusBoard,
// and the IntrospectionServer endpoints — including the acceptance-bar
// property that /metrics stays lint-clean while writers race the scrape.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/serve/http.hpp"
#include "obs/serve/introspect.hpp"
#include "util/parse.hpp"

namespace rpkic::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal blocking test client (keep-alive capable, Content-Length framed).

class Client {
public:
    /// `rcvbufBytes > 0` shrinks SO_RCVBUF before connecting, so the TCP
    /// window throttles the server into many small partial writes (the
    /// slow-reader regression tests below).
    explicit Client(std::uint16_t port, int rcvbufBytes = 0) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ >= 0 && rcvbufBytes > 0) {
            ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbufBytes, sizeof(rcvbufBytes));
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        connected_ =
            fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    ~Client() {
        if (fd_ >= 0) ::close(fd_);
    }
    bool connected() const { return connected_; }
    int fd() const { return fd_; }

    /// Reads up to `want` raw bytes (one recv). <= 0 means error/close.
    ssize_t readSome(char* buf, std::size_t want) { return ::recv(fd_, buf, want, 0); }

    /// Sends a request without reading the response.
    bool sendRaw(const std::string& raw) { return sendAll(raw); }

    /// Hard-aborts the connection: SO_LINGER(0) turns close() into a TCP
    /// RST, the mid-response client crash the server must survive.
    void abortWithRst() {
        if (fd_ < 0) return;
        linger hard{};
        hard.l_onoff = 1;
        hard.l_linger = 0;
        ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &hard, sizeof(hard));
        ::close(fd_);
        fd_ = -1;
    }

    /// Sends raw bytes and reads one Content-Length framed response.
    /// Returns the HTTP status code, 0 on transport error / close.
    int roundTrip(const std::string& raw, std::string* body = nullptr,
                  std::string* head = nullptr) {
        if (!sendAll(raw)) return 0;
        std::string buf;
        std::size_t headerEnd = std::string::npos;
        char chunk[8192];
        while ((headerEnd = buf.find("\r\n\r\n")) == std::string::npos) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) return 0;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        if (head != nullptr) *head = buf.substr(0, headerEnd);
        const std::size_t lenPos = buf.find("Content-Length: ");
        if (lenPos == std::string::npos || lenPos > headerEnd) return 0;
        const std::size_t lenAt = lenPos + 16;
        const std::size_t bodyLen =
            parseU64(buf.substr(lenAt, buf.find("\r\n", lenAt) - lenAt), "Content-Length");
        const std::size_t bodyStart = headerEnd + 4;
        // HEAD responses advertise the body length but never send it.
        const bool isHead = raw.rfind("HEAD ", 0) == 0;
        while (!isHead && buf.size() < bodyStart + bodyLen) {
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) return 0;
            buf.append(chunk, static_cast<std::size_t>(n));
        }
        if (body != nullptr) *body = isHead ? "" : buf.substr(bodyStart, bodyLen);
        if (buf.rfind("HTTP/", 0) != 0) return 0;
        return static_cast<int>(parseU32(buf.substr(buf.find(' ') + 1, 3), "HTTP status"));
    }

    int get(const std::string& path, std::string* body = nullptr) {
        return roundTrip("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n", body);
    }

private:
    bool sendAll(const std::string& data) {
        std::size_t sent = 0;
        while (sent < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
            if (n <= 0) return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    int fd_ = -1;
    bool connected_ = false;
};

// ---------------------------------------------------------------------------
// parseHostPort

TEST(ParseHostPort, AcceptsHostColonPort) {
    std::string host, error;
    std::uint16_t port = 0;
    ASSERT_TRUE(parseHostPort("127.0.0.1:9105", &host, &port, &error)) << error;
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 9105);
}

TEST(ParseHostPort, EmptyHostMeansLoopbackAndZeroMeansEphemeral) {
    std::string host, error;
    std::uint16_t port = 7;
    ASSERT_TRUE(parseHostPort(":0", &host, &port, &error)) << error;
    EXPECT_EQ(host, "127.0.0.1");
    EXPECT_EQ(port, 0);
}

TEST(ParseHostPort, RejectsMalformedAddresses) {
    std::string host, error;
    std::uint16_t port = 0;
    EXPECT_FALSE(parseHostPort("no-colon", &host, &port, &error));
    EXPECT_FALSE(parseHostPort("h:", &host, &port, &error));
    EXPECT_FALSE(parseHostPort("h:notaport", &host, &port, &error));
    EXPECT_FALSE(parseHostPort("h:65536", &host, &port, &error));
    EXPECT_FALSE(parseHostPort("h:123x", &host, &port, &error));
}

// ---------------------------------------------------------------------------
// HttpServer protocol behaviour (real sockets, ephemeral ports)

TEST(HttpServer, ServesRoutesAnd404sUnknownPaths) {
    HttpServer server;
    server.handle("/hello", [](const HttpRequest&) {
        HttpResponse r;
        r.body = "world\n";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;
    ASSERT_NE(server.port(), 0);

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    std::string body;
    EXPECT_EQ(c.get("/hello", &body), 200);
    EXPECT_EQ(body, "world\n");
    EXPECT_EQ(c.get("/nope", &body), 404);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(HttpServer, KeepAliveServesManyRequestsOnOneConnection) {
    HttpServer server;
    server.handle("/ping", [](const HttpRequest&) {
        HttpResponse r;
        r.body = "pong\n";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    for (int i = 0; i < 10; ++i) {
        std::string body;
        ASSERT_EQ(c.get("/ping", &body), 200) << "request " << i;
        EXPECT_EQ(body, "pong\n");
    }
    EXPECT_EQ(server.requestsServed(), 10u);
    server.stop();
}

TEST(HttpServer, HeadAdvertisesLengthWithoutBody) {
    HttpServer server;
    server.handle("/doc", [](const HttpRequest&) {
        HttpResponse r;
        r.body = "0123456789";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    std::string head;
    EXPECT_EQ(c.roundTrip("HEAD /doc HTTP/1.1\r\nHost: t\r\n\r\n", nullptr, &head), 200);
    EXPECT_NE(head.find("Content-Length: 10"), std::string::npos);
    // The connection stays usable: a follow-up GET reads a full body.
    std::string body;
    EXPECT_EQ(c.get("/doc", &body), 200);
    EXPECT_EQ(body, "0123456789");
    server.stop();
}

TEST(HttpServer, RejectsNonGetMethodsWith405) {
    HttpServer server;
    server.handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.roundTrip("POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n"), 405);
    server.stop();
}

TEST(HttpServer, AnswersMalformedRequestsWith400AndDropsTheSession) {
    HttpServer server;
    server.handle("/x", [](const HttpRequest&) { return HttpResponse{}; });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.roundTrip("this is not http\r\n\r\n"), 400);

    // A Content-Length near 2^64 must not wrap past the request cap and
    // swallow the pipelined request behind it as its body.
    Client wrap(server.port());
    ASSERT_TRUE(wrap.connected());
    EXPECT_EQ(wrap.roundTrip("GET /x HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n"
                             "POST /x HTTP/1.1\r\n\r\n"),
              400);
    // ...and the session is dropped: the next read sees the close.
    pollfd readable{wrap.fd(), POLLIN, 0};
    ASSERT_EQ(::poll(&readable, 1, 5000), 1);
    char byte = 0;
    EXPECT_EQ(wrap.readSome(&byte, 1), 0);
    server.stop();
}

TEST(HttpServer, MetersRequestsByPathAndCollapsesUnknownPaths) {
    Registry registry;
    HttpServer::Options options;
    options.registry = &registry;
    HttpServer server(options);
    server.handle("/known", [](const HttpRequest&) { return HttpResponse{}; });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    EXPECT_EQ(c.get("/known"), 200);
    // Client-controlled targets must not mint one series per path.
    EXPECT_EQ(c.get("/evil-1"), 404);
    EXPECT_EQ(c.get("/evil-2"), 404);
    server.stop();

    const RegistrySnapshot snap = registry.snapshot();
    const FamilySnapshot* requests = snap.find("rc_http_requests_total");
    ASSERT_NE(requests, nullptr);
    double known = 0.0, other = 0.0;
    std::size_t series = 0;
    for (const SeriesSnapshot& s : requests->series) {
        ++series;
        if (s.labels.find("/known") != std::string::npos) known = s.value;
        if (s.labels.find("<other>") != std::string::npos) other = s.value;
    }
    EXPECT_EQ(series, 2u);  // "/known" + "<other>" — never "/evil-*"
    EXPECT_EQ(known, 1.0);
    EXPECT_EQ(other, 2.0);
    const FamilySnapshot* sessions = snap.find("rc_http_sessions_total");
    ASSERT_NE(sessions, nullptr);
    EXPECT_EQ(sessions->series[0].value, 1.0);
}

// ---------------------------------------------------------------------------
// Socket-substrate regression tests (the PR-9 bugfix sweep). Each of
// these fails against the pre-substrate http.cpp: the O(n²) partial-write
// erase, the silent accept() break on EMFILE, and the unhandled
// POLLERR/RST drop path.

/// Current value of `family`, summed over series whose label string
/// contains `labelSubstr` ("" matches every series; 0.0 when absent).
double counterValue(const Registry& registry, const std::string& family,
                    const std::string& labelSubstr) {
    const RegistrySnapshot snap = registry.snapshot();
    const FamilySnapshot* fam = snap.find(family);
    if (fam == nullptr) return 0.0;
    double total = 0.0;
    for (const SeriesSnapshot& s : fam->series) {
        if (labelSubstr.empty() || s.labels.find(labelSubstr) != std::string::npos) {
            total += s.value;
        }
    }
    return total;
}

/// Polls `family`/`labelSubstr` until it reaches `atLeast` or ~5s pass.
bool waitForCounter(const Registry& registry, const std::string& family,
                    const std::string& labelSubstr, double atLeast) {
    for (int i = 0; i < 500; ++i) {
        if (counterValue(registry, family, labelSubstr) >= atLeast) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return counterValue(registry, family, labelSubstr) >= atLeast;
}

TEST(HttpServerRegression, SlowReaderDrainsLargeBodyInLinearTime) {
    // A throttled reader forces thousands of partial writes. The old
    // serveSession erased the sent prefix from the front of the output
    // buffer after EVERY partial write — O(bytes² / chunk) memmove, tens
    // of seconds for this body. The write cursor makes it linear.
    constexpr std::size_t kBody = 64u << 20;  // 64 MiB
    HttpServer::Options options;
    options.sessionSendBuffer = 4096;  // tiny SO_SNDBUF: many small sends
    HttpServer server(options);
    server.handle("/big", [](const HttpRequest&) {
        HttpResponse r;
        r.body.assign(kBody, 'x');
        r.contentType = "application/octet-stream";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port(), /*rcvbufBytes=*/4096);
    ASSERT_TRUE(c.connected());
    const auto start = std::chrono::steady_clock::now();
    std::string body;
    ASSERT_EQ(c.get("/big", &body), 200);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(body.size(), kBody);
    EXPECT_EQ(body.front(), 'x');
    EXPECT_EQ(body.back(), 'x');
    // Generous for sanitizer builds; the quadratic rewrite blows far past it.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 20);
    server.stop();
}

TEST(HttpServerRegression, AcceptEmfileIsMeteredAndTheListenerRecovers) {
    // Starve the process of file descriptors so accept() fails with
    // EMFILE. The old loop broke out silently and never counted it; the
    // substrate classifies the errno, keeps the listener armed, and backs
    // off briefly so a full table does not hot-spin the poll loop.
    Registry registry;
    HttpServer::Options options;
    options.registry = &registry;
    HttpServer server(options);
    server.handle("/ping", [](const HttpRequest&) {
        HttpResponse r;
        r.body = "pong\n";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;
    {
        Client warm(server.port());
        ASSERT_TRUE(warm.connected());
        ASSERT_EQ(warm.get("/ping"), 200);
    }

    rlimit original{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
    rlimit capped = original;
    capped.rlim_cur = 128;
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);
    // Fill every free slot under the cap, then free exactly one: the
    // client's socket() takes it, so the server's accept() gets EMFILE.
    std::vector<int> dummies;
    for (int fd = ::dup(0); fd >= 0; fd = ::dup(0)) dummies.push_back(fd);
    if (dummies.empty()) {
        ::setrlimit(RLIMIT_NOFILE, &original);
        server.stop();
        GTEST_SKIP() << "process already holds >=128 fds";
    }
    ::close(dummies.back());
    dummies.pop_back();

    Client starved(server.port(), /*rcvbufBytes=*/0);
    // connect() lands in the listen backlog even though accept() cannot
    // take it yet.
    ASSERT_TRUE(starved.connected());
    EXPECT_TRUE(waitForCounter(registry, "rc_http_accept_errors_total", "emfile", 1.0));

    for (const int fd : dummies) ::close(fd);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

    // With descriptors available again the backlogged connection is
    // accepted after the cooldown — the listener was never torn down.
    EXPECT_EQ(starved.get("/ping"), 200);
    Client fresh(server.port());
    ASSERT_TRUE(fresh.connected());
    EXPECT_EQ(fresh.get("/ping"), 200);
    server.stop();
}

TEST(HttpServerRegression, ClientAbortMidResponseIsDroppedNotFatal) {
    // The client RSTs the connection while megabytes of response are
    // still queued. The server must observe the error revents / failed
    // send, drop the session with reason=peer-error, and keep serving —
    // not SIGPIPE-die or spin on a dead socket.
    Registry registry;
    HttpServer::Options options;
    options.registry = &registry;
    options.sessionSendBuffer = 4096;
    HttpServer server(options);
    server.handle("/big", [](const HttpRequest&) {
        HttpResponse r;
        r.body.assign(8u << 20, 'y');
        r.contentType = "application/octet-stream";
        return r;
    });
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client aborter(server.port(), /*rcvbufBytes=*/4096);
    ASSERT_TRUE(aborter.connected());
    ASSERT_TRUE(aborter.sendRaw("GET /big HTTP/1.1\r\nHost: t\r\n\r\n"));
    char chunk[4096];
    ASSERT_GT(aborter.readSome(chunk, sizeof(chunk)), 0);  // response underway
    aborter.abortWithRst();

    EXPECT_TRUE(waitForCounter(registry, "rc_http_sessions_dropped_total",
                               "peer-error", 1.0));
    // The server survived the abort and serves the next client.
    Client fresh(server.port());
    ASSERT_TRUE(fresh.connected());
    std::string body;
    EXPECT_EQ(fresh.roundTrip("GET /big HTTP/1.1\r\nHost: t\r\n\r\n", &body), 200);
    EXPECT_EQ(body.size(), 8u << 20);
    server.stop();
}

// ---------------------------------------------------------------------------
// StatusBoard

TEST(StatusBoard, RendersSortedRowsAndSupportsPrefixRemoval) {
    StatusBoard board;
    board.set("soak/seed-1/round", "12");
    board.set("fleet/seed-2/epoch", "4");
    board.set("soak/seed-1/alarms", "3");
    EXPECT_EQ(board.size(), 3u);
    EXPECT_EQ(board.get("soak/seed-1/round"), "12");
    EXPECT_EQ(board.render(),
              "fleet/seed-2/epoch: 4\n"
              "soak/seed-1/alarms: 3\n"
              "soak/seed-1/round: 12\n");

    board.removePrefix("soak/");
    EXPECT_EQ(board.size(), 1u);
    board.remove("fleet/seed-2/epoch");
    EXPECT_EQ(board.size(), 0u);
    EXPECT_EQ(board.get("missing"), "");
}

// ---------------------------------------------------------------------------
// IntrospectionServer endpoints

TEST(IntrospectionServer, ServesAllFourEndpoints) {
    Registry registry;
    registry.counter("rc_test_ops_total", "ops").inc(5);
    FlightRecorder recorder(64);
    recorder.record(FlightKind::Alarm, "rp", "class=unilateral-revocation");
    StatusBoard status;
    status.set("soak/seed-9/round", "17");

    IntrospectionServer::Options options;
    options.registry = &registry;
    options.recorder = &recorder;
    options.status = &status;
    IntrospectionServer server(options);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    Client c(server.port());
    ASSERT_TRUE(c.connected());
    std::string body;
    EXPECT_EQ(c.get("/healthz", &body), 200);
    EXPECT_NE(body.find("ok"), std::string::npos);

    EXPECT_EQ(c.get("/metrics", &body), 200);
    EXPECT_NE(body.find("rc_test_ops_total 5"), std::string::npos);
    EXPECT_TRUE(lintPrometheus(body).empty());

    EXPECT_EQ(c.get("/statusz", &body), 200);
    EXPECT_NE(body.find("soak/seed-9/round: 17"), std::string::npos);

    EXPECT_EQ(c.get("/flightz", &body), 200);
    EXPECT_NE(body.find("kind=alarm"), std::string::npos);
    EXPECT_NE(body.find("class=unilateral-revocation"), std::string::npos);

    EXPECT_GE(server.requestsServed(), 4u);
    server.stop();
}

TEST(IntrospectionServer, MetricsStayLintCleanWhileWritersInstrument) {
    Registry registry;
    FlightRecorder recorder(256);
    StatusBoard status;
    IntrospectionServer::Options options;
    options.registry = &registry;
    options.recorder = &recorder;
    options.status = &status;
    IntrospectionServer server(options);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    // Writers mint new series and hammer a histogram while two scrapers
    // pull /metrics — every body must parse and lint clean (torn-read
    // freedom is Registry::snapshot()'s contract, satellite 1).
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < 3; ++w) {
        writers.emplace_back([&, w] {
            Counter& ops = registry.counter("rc_test_writer_ops_total", "ops",
                                            {{"writer", std::to_string(w)}});
            Histogram& lat = registry.histogram("rc_test_writer_seconds", "lat");
            std::uint64_t i = 0;
            while (!stop.load()) {
                ops.inc();
                lat.observe(static_cast<double>(i % 97) / 1000.0);
                status.set("writer/" + std::to_string(w), std::to_string(i));
                recorder.record(FlightKind::LogLine, "test", "i=" + std::to_string(i));
                ++i;
            }
        });
    }

    std::atomic<int> lintProblems{0};
    std::atomic<int> transportErrors{0};
    std::vector<std::thread> scrapers;
    for (int s = 0; s < 2; ++s) {
        scrapers.emplace_back([&] {
            Client c(server.port());
            if (!c.connected()) {
                transportErrors.fetch_add(1);
                return;
            }
            for (int i = 0; i < 40; ++i) {
                std::string body;
                if (c.get("/metrics", &body) != 200) {
                    transportErrors.fetch_add(1);
                    continue;
                }
                const auto problems = lintPrometheus(body);
                lintProblems.fetch_add(static_cast<int>(problems.size()));
                (void)c.get("/flightz", &body);
                (void)c.get("/statusz", &body);
            }
        });
    }
    for (auto& t : scrapers) t.join();
    stop.store(true);
    for (auto& t : writers) t.join();
    server.stop();

    EXPECT_EQ(lintProblems.load(), 0);
    EXPECT_EQ(transportErrors.load(), 0);
}

TEST(IntrospectionServer, ManyConcurrentKeepAliveSessions) {
    IntrospectionServer::Options options;
    Registry registry;
    FlightRecorder recorder(64);
    StatusBoard status;
    options.registry = &registry;
    options.recorder = &recorder;
    options.status = &status;
    IntrospectionServer server(options);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    // 64 sessions held open at once (the bench pushes this to 256+; the
    // unit test keeps CI fast), each serving several requests.
    constexpr int kSessions = 64;
    std::vector<std::unique_ptr<Client>> clients;
    clients.reserve(kSessions);
    for (int i = 0; i < kSessions; ++i) {
        clients.push_back(std::make_unique<Client>(server.port()));
        ASSERT_TRUE(clients.back()->connected()) << "session " << i;
    }
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < kSessions; ++i) {
            std::string body;
            ASSERT_EQ(clients[i]->get("/healthz", &body), 200)
                << "session " << i << " round " << round;
        }
    }
    EXPECT_GE(server.requestsServed(), static_cast<std::uint64_t>(kSessions * 3));
    server.stop();
}

}  // namespace
}  // namespace rpkic::obs
