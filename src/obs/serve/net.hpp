// The socket/session substrate shared by every serving plane in the
// tree: a zero-dependency, poll()-based, non-blocking TCP server that
// owns the listen socket, the session table, and the buffering, and
// delegates protocol interpretation to a pluggable handler. The HTTP
// introspection server (obs/serve/http.hpp) and the RTR-style VRP
// serving plane (serve/rtr.hpp) are both protocols over this layer.
//
// Threading model: one background thread owns every socket and runs the
// poll() loop; the protocol handler runs on that thread, so it must be
// fast and must not block. start()/stop() touch the loop solely through
// atomics and the self-pipe; broadcast() enqueues bytes from any thread
// and the loop drains the queue on its next wake.
//
// Buffering discipline (the lessons of the PR-9 bugfix sweep):
//
//  * Partial writes advance a cursor (Session::outPos) instead of
//    erasing the front of the buffer — front-erase is O(n^2) in body
//    size, which is latent for 1 KiB /metrics bodies and pathological
//    for multi-MB RTR snapshots. The buffer compacts only on completion.
//  * accept() failures are classified: an empty backlog ends the accept
//    burst, a transiently-aborted connection is skipped, and resource
//    exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM) is counted per reason in
//    rc_http_accept_errors_total and leaves the listener armed so the
//    server recovers the moment descriptors free up.
//  * POLLERR/POLLNVAL drop a session immediately, and POLLHUP drops it
//    after a final drain read — an aborted peer can no longer linger in
//    the session table until a read happens to fail. Drops are counted
//    per reason in rc_http_sessions_dropped_total.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.hpp"

namespace rpkic::obs {

/// One connected peer. The protocol handler consumes `in` and appends
/// to `out` via send(); the loop owns the actual socket I/O.
struct NetSession {
    int fd = -1;
    std::string in;             ///< bytes read, not yet consumed by the handler
    std::string out;            ///< bytes queued for the peer
    std::size_t outPos = 0;     ///< write cursor into `out` (compacts on drain)
    bool closeAfterWrite = false;  ///< drop once `out` drains
    bool dropNow = false;          ///< handler verdict: drop without draining

    /// Queues response bytes. Never blocks; the loop flushes as POLLOUT
    /// allows.
    void send(std::string_view bytes) { out.append(bytes); }

    std::size_t pendingOut() const { return out.size() - outPos; }
};

/// Why a session left the table (the label set of
/// rc_http_sessions_dropped_total).
enum class DropReason : std::uint8_t {
    PeerClosed,   ///< orderly EOF
    PeerError,    ///< POLLERR/POLLNVAL or a failed read/write
    PeerHangup,   ///< POLLHUP with nothing left to drain
    Protocol,     ///< handler asked (malformed input, close-after-response)
    ServerStop,   ///< loop shut down
};

std::string_view toString(DropReason r);

/// A protocol over the socket substrate. Runs on the server thread.
class SocketProtocol {
public:
    virtual ~SocketProtocol() = default;

    /// Called whenever `session.in` grew. Consume complete frames from
    /// the front (erase what was parsed), queue output via send(), set
    /// closeAfterWrite/dropNow to end the session.
    virtual void onData(NetSession& session) = 0;
};

class SocketServer {
public:
    struct Options {
        std::size_t maxSessions = 1024;  ///< concurrent connections
        /// SO_SNDBUF for accepted sockets (0 = kernel default). The RTR
        /// plane caps this so 100k sessions cannot pin unbounded kernel
        /// memory; the slow-reader regression test shrinks it to force
        /// partial writes.
        int sessionSendBuffer = 0;
        /// Metric family prefix ("rc_http" today; the substrate predates
        /// a second exposition family, so both protocols share it).
        Registry* registry = nullptr;
    };

    SocketServer();
    explicit SocketServer(Options options);
    SocketServer(const SocketServer&) = delete;
    SocketServer& operator=(const SocketServer&) = delete;
    ~SocketServer();

    /// Binds `address` ("host:port", IPv4; host "" = 127.0.0.1, port 0 =
    /// ephemeral) and starts the loop thread with `protocol` attached.
    /// The protocol must outlive the server. Returns false with *error
    /// set on failure.
    bool start(const std::string& address, SocketProtocol* protocol, std::string* error);

    /// Stops the loop, closes every session, joins the thread. Idempotent.
    void stop();

    bool running() const { return running_; }
    const std::string& boundAddress() const { return boundAddress_; }
    std::uint16_t port() const { return port_; }

    /// Queues `bytes` to every currently-connected session, from any
    /// thread (the RTR plane's Serial Notify fan-out). Sessions accepted
    /// after the call do not receive the bytes.
    void broadcast(std::string bytes);

    /// Currently-connected session count (loop-thread value, racy reads
    /// are fine for tests and status rows).
    std::size_t sessionsOpen() const;

private:
    struct Loop;

    Options options_;
    std::unique_ptr<Loop> loop_;
    std::thread thread_;
    bool running_ = false;
    std::string boundAddress_;
    std::uint16_t port_ = 0;
};

/// Splits "host:port" (the --serve/--rtr argument). Returns false on
/// syntax or range errors. Empty host maps to "127.0.0.1".
bool parseHostPort(const std::string& address, std::string* host, std::uint16_t* port,
                   std::string* error);

}  // namespace rpkic::obs
