// The router side of a round: an in-core cache fleet driven through
// serve::RtrCore, and up to four real TCP router sessions against
// serve::RtrServer on loopback. Both sides check every response they
// apply against the ground truth of the serial it moves them to.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "detector/state.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"
#include "util/rng.hpp"

namespace pipebench {

using namespace rpkic;

/// Order-independent 64-bit digest of a tuple set: the sum of a mixing
/// hash per tuple, so announces add and withdraws subtract.
std::uint64_t tupleHash(const RoaTuple& t);
std::uint64_t setHash(const RpkiState& s);

/// Parses one Prefix PDU (IPv4 or IPv6). Returns false on malformed bytes.
bool decodePrefixPdu(std::string_view pdu, RoaTuple* tuple, bool* announce);

/// Ground truth the in-core fleet is checked against: serial -> (set
/// digest, tuple count) for the epochs the current EpochStore still serves.
class TruthBook {
public:
    struct Entry {
        std::uint64_t hash = 0;
        std::size_t tuples = 0;
    };
    void add(std::uint32_t serial, Entry entry);
    void clear() { bySerial_.clear(); }
    const Entry* find(std::uint32_t serial) const;

private:
    std::map<std::uint32_t, Entry> bySerial_;
};

/// What the in-core fleet did in one round.
struct FleetRound {
    std::uint64_t polls = 0;
    std::uint64_t deltaResponses = 0;
    std::uint64_t snapshotResponses = 0;
    std::uint64_t cacheResets = 0;
    std::uint64_t wireBytes = 0;
    std::uint64_t failures = 0;
    std::vector<float> consumeUs;  ///< RtrCore::consume latency per query
};

/// Simulated cache fleet with rtr_load's shape: a skewed poll cadence
/// (period 1 with p=1/2, 2 with p=1/4, ... up to 64), a crash-and-
/// reconnect tail (1/64 of polls lose their state), and staggered arrival
/// over the first 16 ticks. Each session holds (session id, serial, set
/// digest); responses are verified once per round per distinct request
/// and then matched byte for byte.
class SimFleet {
public:
    SimFleet(std::size_t sessions, std::uint64_t seed);
    FleetRound poll(serve::RtrCore& core, const TruthBook& truth, std::uint32_t tick);

private:
    struct Session {
        std::uint16_t sessionId = 0;
        std::uint32_t serial = 0;
        bool synced = false;
        std::uint64_t digest = 0;
        std::uint32_t period = 1;
        std::uint32_t phase = 0;
        std::uint32_t born = 0;
    };
    struct Verified {
        std::string bytes;
        std::uint64_t deltaDigest = 0;
        bool ok = false;
    };
    bool pollOne(serve::RtrCore& core, const TruthBook& truth, Session& s, FleetRound& out,
                 int depth);
    Verified verify(const std::string& response, bool reset, const Session& s,
                    const TruthBook& truth, std::uint32_t toSerial);

    std::vector<Session> sessions_;
    Rng rng_;
    std::map<std::tuple<bool, std::uint16_t, std::uint32_t>, Verified> memo_;
};

/// Up to four RFC 8210 router sessions over loopback TCP, run by one
/// client thread. The pipeline thread posts expectations; the client
/// thread reacts to Serial Notify / Cache Reset, applies every response
/// to its own VRP set (rejecting duplicate announces and unknown
/// withdraws), and checks the set's size and digest against the expected
/// truth at End of Data.
class TcpRouters {
public:
    explicit TcpRouters(int sessions);
    ~TcpRouters();
    TcpRouters(const TcpRouters&) = delete;
    TcpRouters& operator=(const TcpRouters&) = delete;

    /// Closes any open sessions, connects `sessions` new ones to `port`
    /// and sends each a Reset Query; they must reach `serial` / `truth`.
    void connect(std::uint16_t port, std::uint32_t serial, TruthBook::Entry truth,
                 std::uint64_t startNanos);
    /// Arms the next expected serial (call before RtrServer::notify()).
    void expect(std::uint32_t serial, TruthBook::Entry truth, std::uint64_t startNanos);
    /// Closes every session (before the server they talk to stops).
    void disconnect();

    struct Result {
        std::uint64_t failures = 0;            ///< sessions that failed this exchange
        std::uint64_t lastEodNanos = 0;        ///< latest End of Data applied
        std::vector<double> notifyToEodUs;     ///< per session
        // The same interval split at the client, per session: until the
        // query went out (notify delivery, or connect), until the Cache
        // Response arrived (server loop + RtrCore), until End of Data.
        std::vector<double> untilQueryUs;
        std::vector<double> queryToResponseUs;
        std::vector<double> responseToEodUs;
        std::uint64_t bytesReceived = 0;  ///< by the client, since the last expect()
    };
    /// Blocks until every session has applied End of Data for the armed
    /// serial (or `timeoutMs` passes).
    Result wait(int timeoutMs);

    std::uint64_t protocolErrors() const;

private:
    struct Session;
    /// Work for the client thread: (re)connect to a port, or close all.
    struct Command {
        bool connect = false;
        std::uint16_t port = 0;
    };
    void post(Command command);
    void loop();
    void wake();
    void handleCommands();
    bool readSession(Session& s);
    bool handlePdu(Session& s, std::string_view pdu);
    void finishEod(Session& s, std::uint32_t serial);
    void closeAll();

    const int count_;
    int wakePipe_[2] = {-1, -1};
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    // Guarded by mutex_.
    std::vector<Command> commands_;
    std::uint64_t posted_ = 0;     ///< commands queued so far
    std::uint64_t completed_ = 0;  ///< commands the client thread has carried out
    bool stop_ = false;
    std::uint32_t expectSerial_ = 0;
    TruthBook::Entry expectTruth_;
    std::uint64_t startNanos_ = 0;
    std::uint64_t protocolErrors_ = 0;
    int reached_ = 0;
    int failedSessions_ = 0;
    std::uint64_t lastEodNanos_ = 0;
    std::vector<double> latenciesUs_;
    std::vector<double> untilQueryUs_;
    std::vector<double> queryToResponseUs_;
    std::vector<double> responseToEodUs_;
    std::uint64_t bytesReceived_ = 0;
    bool armed_ = false;
    // Client-thread state.
    std::vector<std::unique_ptr<Session>> sessions_;
    std::thread thread_;
};

}  // namespace pipebench
