// A zero-dependency HTTP/1.1 server for in-process introspection,
// implemented as a protocol over the shared socket substrate in
// obs/serve/net.hpp (which owns the poll() loop, the session table, and
// the buffering discipline; the RTR serving plane is a sibling protocol).
//
// Scope: GET-style request/response over keep-alive sessions. Handlers
// run on the server thread, so they must be fast and must not block (the
// introspection handlers render from snapshots, never under long locks).
// Responses are Content-Length framed; HTTP/1.1 sessions persist until
// the peer closes, sends `Connection: close`, or misbehaves (oversized
// or malformed requests are answered with 4xx and the session dropped).
//
// Lifecycle: start("addr:port") binds + spawns the thread ("...:0" picks
// an ephemeral port — read the result back from boundAddress()); stop()
// wakes the loop via a self-pipe and joins. The destructor stops.
//
// The rc_http_* metric catalogue lives in docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/serve/net.hpp"

namespace rpkic::obs {

struct HttpRequest {
    std::string method;
    std::string target;   ///< path only; the query string (if any) is split off
    std::string query;    ///< bytes after '?' ("" if none)
    std::string version;  ///< "HTTP/1.1" or "HTTP/1.0"
    std::vector<std::pair<std::string, std::string>> headers;  ///< names lowercased
    std::string body;

    /// First value of `name` (lowercase), or "" if absent.
    std::string header(const std::string& name) const;
};

struct HttpResponse {
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
};

/// Handler for one route. Runs on the server thread; keep it fast.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
public:
    struct Options {
        std::size_t maxSessions = 1024;       ///< concurrent connections
        /// SO_SNDBUF for accepted sockets (0 = kernel default); see
        /// SocketServer::Options::sessionSendBuffer.
        int sessionSendBuffer = 0;
        /// Registry for rc_http_* instruments (nullptr = unmetered).
        Registry* registry = nullptr;
    };

    HttpServer();
    explicit HttpServer(Options options);
    HttpServer(const HttpServer&) = delete;
    HttpServer& operator=(const HttpServer&) = delete;
    ~HttpServer();

    /// Registers an exact-match route ("/metrics"). Must be called before
    /// start(). Unknown paths get 404, non-GET/HEAD methods 405.
    void handle(const std::string& path, HttpHandler handler);

    /// Binds `address` ("host:port", IPv4; host "" = 127.0.0.1, port 0 =
    /// ephemeral) and starts the server thread. Returns false with
    /// `*error` set on failure.
    bool start(const std::string& address, std::string* error);

    /// Stops the loop, closes every session, joins the thread. Idempotent.
    void stop();

    bool running() const { return running_; }
    /// "ip:port" actually bound (valid after a successful start()).
    const std::string& boundAddress() const { return boundAddress_; }
    std::uint16_t port() const { return port_; }

    /// Total requests answered (any status). For tests.
    std::uint64_t requestsServed() const;

private:
    struct Proto;

    Options options_;
    std::map<std::string, HttpHandler> routes_;
    std::unique_ptr<Proto> proto_;
    std::unique_ptr<SocketServer> server_;
    bool running_ = false;
    std::string boundAddress_;
    std::uint16_t port_ = 0;
};

}  // namespace rpkic::obs
