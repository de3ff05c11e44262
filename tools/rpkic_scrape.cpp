// rpkic-scrape: a zero-dependency HTTP client for the introspection
// endpoints (obs/serve/). CI and tests use it to pull /metrics, /statusz
// or /flightz from a live rpkic-soak / rpkic-detector without needing
// curl inside the container:
//
//   rpkic-scrape http://127.0.0.1:9105/metrics --lint
//   rpkic-scrape 127.0.0.1:9105/statusz --out statusz.txt
//   rpkic-scrape http://127.0.0.1:9105/metrics --retry 50 --timeout-ms 2000
//
// Options:
//   --out FILE       write the response body to FILE (default: stdout)
//   --lint           run the Prometheus exposition linter over the body
//                    (the same lintPrometheus() check CI runs over
//                    --metrics-out artifacts); problems exit 2
//   --retry N        connection attempts before giving up (default 1);
//                    retries sleep 100 ms, so a scraper can start before
//                    the server has bound
//   --timeout-ms MS  per-attempt connect/send/receive timeout (default
//                    5000)
//   --quiet          body still goes to --out/stdout, no status chatter
//
// Exit status: 0 = HTTP 200 (and lint clean if --lint), 2 = non-200
// response or lint problems, 1 = usage/connection error.
#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <chrono>

#include "obs/metrics.hpp"
#include "util/parse.hpp"

using namespace rpkic;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: rpkic-scrape URL [--out FILE] [--lint] [--retry N]\n"
                 "                    [--timeout-ms MS] [--quiet]\n"
                 "  URL: http://HOST:PORT/PATH (the http:// prefix is optional)\n");
    return 1;
}

struct Url {
    std::string host;
    std::string port;
    std::string path;
};

bool parseUrl(std::string url, Url* out) {
    const std::string prefix = "http://";
    if (url.rfind(prefix, 0) == 0) url = url.substr(prefix.size());
    const std::size_t slash = url.find('/');
    std::string hostPort = slash == std::string::npos ? url : url.substr(0, slash);
    out->path = slash == std::string::npos ? "/" : url.substr(slash);
    const std::size_t colon = hostPort.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= hostPort.size()) return false;
    out->host = hostPort.substr(0, colon);
    out->port = hostPort.substr(colon + 1);
    return true;
}

/// One blocking GET over a fresh connection ("Connection: close", so EOF
/// delimits the body). Returns false with *error on transport failure;
/// HTTP status goes to *status.
bool fetchOnce(const Url& url, std::uint32_t timeoutMs, std::string* body, int* status,
               std::string* error) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int gai = ::getaddrinfo(url.host.c_str(), url.port.c_str(), &hints, &res);
    if (gai != 0) {
        *error = std::string("resolve: ") + ::gai_strerror(gai);
        return false;
    }

    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        timeval tv{};
        tv.tv_sec = static_cast<time_t>(timeoutMs / 1000);
        tv.tv_usec = static_cast<suseconds_t>(timeoutMs % 1000) * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0) {
        *error = std::string("connect: ") + std::strerror(errno);
        return false;
    }

    const std::string request = "GET " + url.path + " HTTP/1.1\r\nHost: " + url.host +
                                "\r\nConnection: close\r\nUser-Agent: rpkic-scrape\r\n\r\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
        const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
        if (n <= 0) {
            *error = std::string("send: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }

    std::string response;
    char buf[16384];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0) {
            *error = std::string("recv: ") + std::strerror(errno);
            ::close(fd);
            return false;
        }
        if (n == 0) break;
        response.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);

    // Minimal response parse: status line, then body after the blank line.
    if (response.rfind("HTTP/", 0) != 0) {
        *error = "malformed response (no HTTP status line)";
        return false;
    }
    const std::size_t sp = response.find(' ');
    if (sp == std::string::npos || sp + 4 > response.size()) {
        *error = "malformed status line";
        return false;
    }
    try {
        *status = static_cast<int>(parseU32(response.substr(sp + 1, 3), "HTTP status"));
    } catch (const ParseError& e) {
        *error = e.what();
        return false;
    }
    const std::size_t headerEnd = response.find("\r\n\r\n");
    if (headerEnd == std::string::npos) {
        *error = "malformed response (no header terminator)";
        return false;
    }
    *body = response.substr(headerEnd + 4);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    std::string urlArg;
    std::string outPath;
    bool lint = false;
    std::uint32_t retries = 1;
    std::uint32_t timeoutMs = 5000;
    bool quiet = false;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--out" && i + 1 < argc) {
                outPath = argv[++i];
            } else if (arg == "--lint") {
                lint = true;
            } else if (arg == "--retry" && i + 1 < argc) {
                retries = parseU32(argv[++i], "--retry");
            } else if (arg == "--timeout-ms" && i + 1 < argc) {
                timeoutMs = parseU32(argv[++i], "--timeout-ms");
            } else if (arg == "--quiet") {
                quiet = true;
            } else if (urlArg.empty() && !arg.empty() && arg[0] != '-') {
                urlArg = arg;
            } else {
                return usage();
            }
        }
    } catch (const ParseError& e) {
        std::fprintf(stderr, "rpkic-scrape: %s\n", e.what());
        return 1;
    }
    if (urlArg.empty() || retries < 1 || timeoutMs < 1) return usage();

    Url url;
    if (!parseUrl(urlArg, &url)) {
        std::fprintf(stderr, "rpkic-scrape: cannot parse URL (want HOST:PORT/PATH): %s\n",
                     urlArg.c_str());
        return 1;
    }

    std::string body;
    int status = 0;
    std::string error;
    bool fetched = false;
    for (std::uint32_t attempt = 0; attempt < retries; ++attempt) {
        if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (fetchOnce(url, timeoutMs, &body, &status, &error)) {
            fetched = true;
            break;
        }
    }
    if (!fetched) {
        std::fprintf(stderr, "rpkic-scrape: %s (%u attempt%s)\n", error.c_str(), retries,
                     retries == 1 ? "" : "s");
        return 1;
    }

    if (!outPath.empty()) {
        std::ofstream out(outPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "rpkic-scrape: cannot write %s\n", outPath.c_str());
            return 1;
        }
        out << body;
    } else {
        std::fwrite(body.data(), 1, body.size(), stdout);
    }

    if (!quiet) {
        std::fprintf(stderr, "rpkic-scrape: HTTP %d, %zu bytes from %s\n", status, body.size(),
                     urlArg.c_str());
    }
    if (status != 200) return 2;

    if (lint) {
        const std::vector<std::string> problems = obs::lintPrometheus(body);
        for (const std::string& p : problems) {
            std::fprintf(stderr, "rpkic-scrape: lint: %s\n", p.c_str());
        }
        if (!problems.empty()) return 2;
        if (!quiet) std::fprintf(stderr, "rpkic-scrape: lint clean\n");
    }
    return 0;
}
