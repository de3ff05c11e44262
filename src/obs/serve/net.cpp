#include "obs/serve/net.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/parse.hpp"
#include "util/thread_annotations.hpp"

namespace rpkic::obs {

std::string_view toString(DropReason r) {
    switch (r) {
        case DropReason::PeerClosed: return "peer-closed";
        case DropReason::PeerError: return "peer-error";
        case DropReason::PeerHangup: return "peer-hangup";
        case DropReason::Protocol: return "protocol";
        case DropReason::ServerStop: return "server-stop";
    }
    return "unknown";
}

namespace {

bool setNonBlocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0) return false;
    return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

bool parseHostPort(const std::string& address, std::string* host, std::uint16_t* port,
                   std::string* error) {
    const std::size_t colon = address.rfind(':');
    if (colon == std::string::npos) {
        *error = "address must be host:port, got '" + address + "'";
        return false;
    }
    *host = address.substr(0, colon);
    if (host->empty()) *host = "127.0.0.1";
    const std::string portText = address.substr(colon + 1);
    std::uint64_t value = 0;
    try {
        value = parseU64(portText, "port");
    } catch (const ParseError&) {
        *error = "bad port '" + portText + "'";
        return false;
    }
    if (value > 65535) {
        *error = "port out of range: " + portText;
        return false;
    }
    *port = static_cast<std::uint16_t>(value);
    return true;
}

// ---------------------------------------------------------------------------
// Loop internals. Everything below runs on the server thread only;
// start()/stop()/broadcast() touch it solely through atomics, the
// self-pipe, and the broadcast queue's own mutex.

struct SocketServer::Loop {
    Options options;
    SocketProtocol* protocol = nullptr;

    int listenFd = -1;
    int wakeRead = -1;
    int wakeWrite = -1;
    std::atomic<bool> stopFlag{false};
    std::map<int, NetSession> sessions;
    std::atomic<std::size_t> open{0};

    // Cross-thread broadcast queue (Serial Notify fan-out).
    rc::Mutex broadcastMutex;
    std::vector<std::string> pendingBroadcasts RC_GUARDED_BY(broadcastMutex);

    // After a resource-exhaustion accept failure the listener stays bound
    // but is left out of the poll set for a few short iterations —
    // level-triggered POLLIN on a backlog we cannot accept would
    // otherwise spin the loop hot until descriptors free up.
    int acceptCooldown = 0;

    // Instruments (null when unmetered). Reason-labelled counters are
    // minted lazily; the label sets are closed enums, so cardinality is
    // bounded by construction.
    Gauge* sessionsOpenGauge = nullptr;
    Counter* sessionsTotal = nullptr;
    Counter* bytesReadTotal = nullptr;
    Counter* bytesWrittenTotal = nullptr;
    std::map<std::string, Counter*> acceptErrorCounters;
    std::map<std::string, Counter*> dropCounters;

    ~Loop() {
        for (auto& [fd, session] : sessions) ::close(fd);
        if (listenFd >= 0) ::close(listenFd);
        if (wakeRead >= 0) ::close(wakeRead);
        if (wakeWrite >= 0) ::close(wakeWrite);
    }

    void attachMetrics() {
        Registry* reg = options.registry;
        if (reg == nullptr) return;
        sessionsOpenGauge = &reg->gauge("rc_http_sessions_open",
                                        "Serving-plane sessions currently connected");
        sessionsTotal = &reg->counter("rc_http_sessions_total",
                                      "Serving-plane sessions ever accepted");
        bytesReadTotal = &reg->counter("rc_http_bytes_read_total",
                                       "Bytes read from serving-plane clients");
        bytesWrittenTotal = &reg->counter("rc_http_bytes_written_total",
                                          "Bytes written to serving-plane clients");
    }

    void countAcceptError(const std::string& reason) {
        Registry* reg = options.registry;
        if (reg == nullptr) return;
        Counter*& slot = acceptErrorCounters[reason];
        if (slot == nullptr) {
            slot = &reg->counter("rc_http_accept_errors_total",
                                 "accept() failures by classified errno reason",
                                 {{"reason", reason}});
        }
        slot->inc();
    }

    void countDrop(DropReason reason) {
        Registry* reg = options.registry;
        if (reg == nullptr) return;
        const std::string key{toString(reason)};
        Counter*& slot = dropCounters[key];
        if (slot == nullptr) {
            slot = &reg->counter("rc_http_sessions_dropped_total",
                                 "Sessions removed from the table, by reason",
                                 {{"reason", key}});
        }
        slot->inc();
    }

    void acceptPending() {
        while (sessions.size() < options.maxSessions) {
            const int fd = ::accept(listenFd, nullptr, nullptr);
            if (fd < 0) {
                if (errno == EINTR) continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK) break;  // backlog drained
                if (errno == ECONNABORTED) {
                    // The peer gave up between SYN and accept; the next
                    // backlog entry is unaffected.
                    countAcceptError("aborted");
                    continue;
                }
                if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                    errno == ENOMEM) {
                    // Resource exhaustion: count it loudly, keep the
                    // listener bound, and back off briefly so the
                    // level-triggered backlog does not spin the loop.
                    countAcceptError(errno == EMFILE   ? "emfile"
                                     : errno == ENFILE ? "enfile"
                                                       : "no-memory");
                    acceptCooldown = 3;
                    break;
                }
                countAcceptError("other");
                break;
            }
            if (!setNonBlocking(fd)) {
                ::close(fd);
                continue;
            }
            if (options.sessionSendBuffer > 0) {
                const int size = options.sessionSendBuffer;
                ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
            }
            // Writes are whole replies or PDUs. Under Nagle a Serial Notify
            // sent within the peer's delayed-ACK timeout (~40 ms on Linux)
            // of the previous reply would wait for that ACK.
            const int noDelay = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &noDelay, sizeof noDelay);
            NetSession session;
            session.fd = fd;
            sessions.emplace(fd, std::move(session));
            open.store(sessions.size(), std::memory_order_relaxed);
            if (sessionsTotal != nullptr) sessionsTotal->inc();
            if (sessionsOpenGauge != nullptr) sessionsOpenGauge->add(1);
        }
    }

    void dropSession(int fd, DropReason reason) {
        const auto it = sessions.find(fd);
        if (it == sessions.end()) return;
        ::close(fd);
        sessions.erase(it);
        open.store(sessions.size(), std::memory_order_relaxed);
        if (sessionsOpenGauge != nullptr) sessionsOpenGauge->add(-1);
        countDrop(reason);
    }

    enum class ReadStatus : std::uint8_t { Open, Eof, Error };

    /// Drains the socket, then hands grown input to the protocol.
    ReadStatus readSession(NetSession& session) {
        char buf[16384];
        bool grew = false;
        ReadStatus status = ReadStatus::Open;
        while (true) {
            const ssize_t n = ::recv(session.fd, buf, sizeof buf, 0);
            if (n > 0) {
                session.in.append(buf, static_cast<std::size_t>(n));
                if (bytesReadTotal != nullptr) {
                    bytesReadTotal->inc(static_cast<std::uint64_t>(n));
                }
                grew = true;
                continue;
            }
            if (n == 0) {
                status = ReadStatus::Eof;
                break;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            status = ReadStatus::Error;
            break;
        }
        if (grew && status != ReadStatus::Error) protocol->onData(session);
        return status;
    }

    enum class WriteStatus : std::uint8_t { Open, Done, Error };

    /// Flushes as much of session.out as the socket accepts. The write
    /// cursor (outPos) advances on partial writes; the buffer is
    /// compacted only when fully drained, so a multi-MB snapshot costs
    /// O(n) total instead of the O(n^2) a front-erase per chunk would.
    WriteStatus writeSession(NetSession& session) {
        while (session.outPos < session.out.size()) {
            // MSG_NOSIGNAL: a peer that resets mid-response must surface
            // as EPIPE here, not as a process-fatal SIGPIPE.
            const ssize_t n = ::send(session.fd, session.out.data() + session.outPos,
                                     session.out.size() - session.outPos, MSG_NOSIGNAL);
            if (n > 0) {
                if (bytesWrittenTotal != nullptr) {
                    bytesWrittenTotal->inc(static_cast<std::uint64_t>(n));
                }
                session.outPos += static_cast<std::size_t>(n);
                continue;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK) return WriteStatus::Open;
            if (errno == EINTR) continue;
            return WriteStatus::Error;
        }
        session.out.clear();
        session.outPos = 0;
        return session.closeAfterWrite ? WriteStatus::Done : WriteStatus::Open;
    }

    void drainBroadcasts() {
        std::vector<std::string> pending;
        {
            rc::LockGuard lock(broadcastMutex);
            pending.swap(pendingBroadcasts);
        }
        for (const std::string& bytes : pending) {
            for (auto& [fd, session] : sessions) session.send(bytes);
        }
    }

    void run() {
        std::vector<pollfd> fds;
        while (!stopFlag.load(std::memory_order_acquire)) {
            fds.clear();
            fds.push_back({wakeRead, POLLIN, 0});
            const bool pollListener =
                sessions.size() < options.maxSessions && acceptCooldown == 0;
            if (pollListener) fds.push_back({listenFd, POLLIN, 0});
            for (const auto& [fd, session] : sessions) {
                const short events = static_cast<short>(
                    session.pendingOut() == 0 ? POLLIN : POLLIN | POLLOUT);
                fds.push_back({fd, events, 0});
            }
            const int timeoutMs = acceptCooldown > 0 ? 100 : 1000;
            const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeoutMs);
            if (acceptCooldown > 0) --acceptCooldown;
            if (ready < 0) {
                if (errno == EINTR) continue;
                break;
            }
            if (ready == 0) continue;

            std::vector<std::pair<int, DropReason>> toDrop;
            for (const pollfd& p : fds) {
                if (p.revents == 0) continue;
                if (p.fd == wakeRead) {
                    char drainBuf[64];
                    while (::read(wakeRead, drainBuf, sizeof drainBuf) > 0) {
                    }
                    drainBroadcasts();
                    continue;
                }
                if (p.fd == listenFd && pollListener) {
                    acceptPending();
                    continue;
                }
                const auto it = sessions.find(p.fd);
                if (it == sessions.end()) continue;
                NetSession& session = it->second;

                // A session the kernel has flagged as errored or invalid
                // is dead now — reading garbage until a read fails would
                // leave it lingering in the table (the PR-9 half-closed
                // session bug).
                if ((p.revents & (POLLERR | POLLNVAL)) != 0) {
                    toDrop.emplace_back(p.fd, DropReason::PeerError);
                    continue;
                }

                bool sawEof = false;
                if ((p.revents & (POLLIN | POLLHUP)) != 0) {
                    // POLLHUP can coexist with buffered readable data;
                    // drain it so a final pipelined request is answered.
                    const ReadStatus rs = readSession(session);
                    if (rs == ReadStatus::Error) {
                        toDrop.emplace_back(p.fd, DropReason::PeerError);
                        continue;
                    }
                    sawEof = rs == ReadStatus::Eof;
                }
                if (session.dropNow) {
                    toDrop.emplace_back(p.fd, DropReason::Protocol);
                    continue;
                }
                if (session.pendingOut() > 0) {
                    const WriteStatus ws = writeSession(session);
                    if (ws == WriteStatus::Error) {
                        toDrop.emplace_back(p.fd, DropReason::PeerError);
                        continue;
                    }
                    if (ws == WriteStatus::Done) {
                        toDrop.emplace_back(p.fd, DropReason::Protocol);
                        continue;
                    }
                }
                if (sawEof) {
                    if (session.pendingOut() == 0) {
                        toDrop.emplace_back(p.fd, DropReason::PeerClosed);
                    } else {
                        // Half-close: the peer shut its write side but may
                        // still read; flush what is queued, then drop.
                        session.closeAfterWrite = true;
                    }
                }
            }
            for (const auto& [fd, reason] : toDrop) dropSession(fd, reason);
        }
        // Orderly shutdown: close every remaining session.
        while (!sessions.empty()) dropSession(sessions.begin()->first, DropReason::ServerStop);
    }
};

SocketServer::SocketServer() : SocketServer(Options()) {}

SocketServer::SocketServer(Options options) : options_(options) {}

SocketServer::~SocketServer() {
    stop();
}

bool SocketServer::start(const std::string& address, SocketProtocol* protocol,
                         std::string* error) {
    if (running_) {
        *error = "server already running";
        return false;
    }
    std::string host;
    std::uint16_t wantPort = 0;
    if (!parseHostPort(address, &host, &wantPort, error)) return false;

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(wantPort);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        *error = "bad IPv4 address '" + host + "'";
        return false;
    }

    auto loop = std::make_unique<Loop>();
    loop->options = options_;
    loop->protocol = protocol;

    loop->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (loop->listenFd < 0) {
        *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    const int one = 1;
    ::setsockopt(loop->listenFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(loop->listenFd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        *error = "bind " + address + ": " + std::strerror(errno);
        return false;
    }
    if (::listen(loop->listenFd, 512) != 0) {
        *error = std::string("listen: ") + std::strerror(errno);
        return false;
    }
    sockaddr_in bound{};
    socklen_t boundLen = sizeof bound;
    if (::getsockname(loop->listenFd, reinterpret_cast<sockaddr*>(&bound), &boundLen) != 0) {
        *error = std::string("getsockname: ") + std::strerror(errno);
        return false;
    }
    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &bound.sin_addr, ip, sizeof ip);
    port_ = ntohs(bound.sin_port);
    boundAddress_ = std::string(ip) + ":" + std::to_string(port_);

    int pipeFds[2];
    if (::pipe(pipeFds) != 0) {
        *error = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    loop->wakeRead = pipeFds[0];
    loop->wakeWrite = pipeFds[1];
    if (!setNonBlocking(loop->listenFd) || !setNonBlocking(loop->wakeRead) ||
        !setNonBlocking(loop->wakeWrite)) {
        *error = "failed to set O_NONBLOCK";
        return false;
    }
    loop->attachMetrics();

    loop_ = std::move(loop);
    thread_ = std::thread([this] { loop_->run(); });
    running_ = true;
    return true;
}

void SocketServer::stop() {
    if (!running_) return;
    loop_->stopFlag.store(true, std::memory_order_release);
    const char byte = 'x';
    [[maybe_unused]] const ssize_t n = ::write(loop_->wakeWrite, &byte, 1);
    thread_.join();
    loop_.reset();
    running_ = false;
}

void SocketServer::broadcast(std::string bytes) {
    if (!running_) return;
    {
        rc::LockGuard lock(loop_->broadcastMutex);
        loop_->pendingBroadcasts.push_back(std::move(bytes));
    }
    const char byte = 'b';
    [[maybe_unused]] const ssize_t n = ::write(loop_->wakeWrite, &byte, 1);
}

std::size_t SocketServer::sessionsOpen() const {
    return loop_ ? loop_->open.load(std::memory_order_relaxed) : 0;
}

}  // namespace rpkic::obs
