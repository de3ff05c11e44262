#include "obs/serve/http.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstring>

namespace rpkic::obs {

namespace {

/// Cap on one request's head plus body.
constexpr std::size_t kMaxRequestBytes = 65536;

const char* statusText(int status) {
    switch (status) {
        case 200: return "OK";
        case 400: return "Bad Request";
        case 404: return "Not Found";
        case 405: return "Method Not Allowed";
        case 431: return "Request Header Fields Too Large";
        case 500: return "Internal Server Error";
    }
    return "Unknown";
}

std::string lowercase(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
    return s;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
    // The server deliberately reads the steady clock directly instead of
    // obs::nowNanos(): scraping a process that runs under a
    // LogicalTimeSource must not advance the logical clock and perturb
    // the run it is observing.
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

std::string HttpRequest::header(const std::string& name) const {
    for (const auto& [k, v] : headers) {
        if (k == name) return v;
    }
    return "";
}

// ---------------------------------------------------------------------------
// The HTTP protocol handler. Runs on the SocketServer loop thread; the
// substrate owns all socket I/O and the session table, this class only
// interprets bytes.

struct HttpServer::Proto : SocketProtocol {
    Options options;
    std::map<std::string, HttpHandler> routes;
    std::atomic<std::uint64_t> served{0};

    // Instruments (null when unmetered). The per-(path,code) counter
    // cache is keyed by matched route (unknown paths collapse to
    // "<other>" so client-controlled targets cannot explode cardinality).
    Histogram* requestSeconds = nullptr;
    std::map<std::string, Counter*> requestCounters;

    void attachMetrics() {
        Registry* reg = options.registry;
        if (reg == nullptr) return;
        requestSeconds = &reg->histogram(
            "rc_http_request_seconds",
            "Introspection request handling latency (parse to response queued)");
    }

    void countRequest(const std::string& routeKey, int status) {
        served.fetch_add(1, std::memory_order_relaxed);
        Registry* reg = options.registry;
        if (reg == nullptr) return;
        const std::string key = routeKey + "|" + std::to_string(status);
        Counter*& slot = requestCounters[key];
        if (slot == nullptr) {
            slot = &reg->counter("rc_http_requests_total",
                                 "Introspection HTTP requests answered, by path and code",
                                 {{"path", routeKey}, {"code", std::to_string(status)}});
        }
        slot->inc();
    }

    void queueResponse(NetSession& session, const HttpRequest& request,
                       const HttpResponse& response, bool keepAlive) {
        // Echo only versions we actually speak: a malformed request line
        // leaves whatever garbage token it had in request.version, and a
        // 400 must still open with a valid status line.
        std::string head = (request.version == "HTTP/1.0" ? "HTTP/1.0" : "HTTP/1.1");
        head += " " + std::to_string(response.status) + " " + statusText(response.status) +
                "\r\n";
        head += "Content-Type: " + response.contentType + "\r\n";
        head += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
        head += keepAlive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
        head += "\r\n";
        session.send(head);
        if (request.method != "HEAD") session.send(response.body);
        if (!keepAlive) session.closeAfterWrite = true;
    }

    /// Parses one complete request out of session.in. Returns 0 when the
    /// head is incomplete, 1 on success, -1 on malformed input, -2 when
    /// the request exceeds kMaxRequestBytes.
    int parseRequest(NetSession& session, HttpRequest* request) {
        const std::size_t headEnd = session.in.find("\r\n\r\n");
        if (headEnd == std::string::npos) {
            return session.in.size() > kMaxRequestBytes ? -2 : 0;
        }
        const std::string head = session.in.substr(0, headEnd);
        std::size_t lineStart = 0;
        std::size_t lineEnd = head.find("\r\n");
        const std::string requestLine =
            head.substr(0, lineEnd == std::string::npos ? head.size() : lineEnd);

        const std::size_t sp1 = requestLine.find(' ');
        const std::size_t sp2 = requestLine.rfind(' ');
        if (sp1 == std::string::npos || sp2 == sp1) return -1;
        request->method = requestLine.substr(0, sp1);
        std::string target = requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
        request->version = requestLine.substr(sp2 + 1);
        if (request->method.empty() || target.empty() || target[0] != '/') return -1;
        if (request->version != "HTTP/1.1" && request->version != "HTTP/1.0") return -1;
        const std::size_t q = target.find('?');
        if (q != std::string::npos) {
            request->query = target.substr(q + 1);
            target.resize(q);
        }
        request->target = target;

        std::size_t contentLength = 0;
        while (lineEnd != std::string::npos) {
            lineStart = lineEnd + 2;
            lineEnd = head.find("\r\n", lineStart);
            const std::string headerLine = head.substr(
                lineStart,
                (lineEnd == std::string::npos ? head.size() : lineEnd) - lineStart);
            if (headerLine.empty()) break;
            const std::size_t colon = headerLine.find(':');
            if (colon == std::string::npos) return -1;
            std::string name = lowercase(headerLine.substr(0, colon));
            std::string value = headerLine.substr(colon + 1);
            while (!value.empty() && (value.front() == ' ' || value.front() == '\t')) {
                value.erase(value.begin());
            }
            request->headers.emplace_back(std::move(name), std::move(value));
        }
        const std::string lengthText = request->header("content-length");
        if (!lengthText.empty()) {
            // Digits only, and compared against the room left under the cap
            // before anything is added: a length near 2^64 must not wrap
            // the sum below the cap and swallow a pipelined request.
            if (headEnd + 4 > kMaxRequestBytes) return -1;
            const std::size_t room = kMaxRequestBytes - (headEnd + 4);
            for (const char c : lengthText) {
                if (c < '0' || c > '9') return -1;
                contentLength = contentLength * 10 + static_cast<std::size_t>(c - '0');
                if (contentLength > room) return -1;
            }
        }
        if (session.in.size() < headEnd + 4 + contentLength) return 0;
        request->body = session.in.substr(headEnd + 4, contentLength);
        session.in.erase(0, headEnd + 4 + contentLength);
        return 1;
    }

    void onData(NetSession& session) override {
        // Answer every complete pipelined request already buffered.
        while (true) {
            HttpRequest request;
            const int parsed = parseRequest(session, &request);
            if (parsed == 0) return;
            if (parsed < 0) {
                session.in.clear();
                HttpResponse response;
                response.status = parsed == -2 ? 431 : 400;
                response.body = parsed == -2 ? "request too large\n" : "bad request\n";
                queueResponse(session, request, response, false);
                countRequest("<other>", response.status);
                return;
            }

            const auto start = std::chrono::steady_clock::now();
            bool keepAlive = request.version == "HTTP/1.1"
                                 ? lowercase(request.header("connection")) != "close"
                                 : lowercase(request.header("connection")) == "keep-alive";
            HttpResponse response;
            std::string routeKey = "<other>";
            if (request.method != "GET" && request.method != "HEAD") {
                response.status = 405;
                response.body = "method not allowed\n";
            } else if (const auto it = routes.find(request.target); it != routes.end()) {
                routeKey = request.target;
                response = it->second(request);
            } else {
                response.status = 404;
                response.body = "not found\n";
            }
            queueResponse(session, request, response, keepAlive);
            countRequest(routeKey, response.status);
            if (requestSeconds != nullptr) requestSeconds->observe(secondsSince(start));
            if (!keepAlive) return;
        }
    }
};

HttpServer::HttpServer() : HttpServer(Options()) {}

HttpServer::HttpServer(Options options) : options_(options) {}

HttpServer::~HttpServer() {
    stop();
}

void HttpServer::handle(const std::string& path, HttpHandler handler) {
    routes_[path] = std::move(handler);
}

bool HttpServer::start(const std::string& address, std::string* error) {
    if (running_) {
        *error = "server already running";
        return false;
    }
    auto proto = std::make_unique<Proto>();
    proto->options = options_;
    proto->routes = routes_;
    proto->attachMetrics();

    SocketServer::Options socketOptions;
    socketOptions.maxSessions = options_.maxSessions;
    socketOptions.sessionSendBuffer = options_.sessionSendBuffer;
    socketOptions.registry = options_.registry;
    auto server = std::make_unique<SocketServer>(socketOptions);
    if (!server->start(address, proto.get(), error)) return false;

    proto_ = std::move(proto);
    server_ = std::move(server);
    boundAddress_ = server_->boundAddress();
    port_ = server_->port();
    running_ = true;
    return true;
}

void HttpServer::stop() {
    if (!running_) return;
    server_->stop();
    server_.reset();
    proto_.reset();
    running_ = false;
}

std::uint64_t HttpServer::requestsServed() const {
    return proto_ ? proto_->served.load(std::memory_order_relaxed) : 0;
}

}  // namespace rpkic::obs
