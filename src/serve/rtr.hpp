// The RTR-style serving plane (RFC 8210 session semantics over the
// shared socket substrate).
//
// RtrCore is the cache-side state machine as a pure bytes-in/bytes-out
// function against an EpochStore: a Serial Query whose serial is still
// in the ring gets Cache Response + incremental delta + End of Data; an
// evicted or unknown serial gets Cache Reset; a Reset Query gets the
// full snapshot. Keeping it socket-free is what lets bench/rtr_load.cpp
// drive 100k+ simulated cache sessions through the identical code path
// the TCP server runs, without 100k file descriptors.
//
// RtrServer binds RtrCore to a SocketServer and adds the Serial Notify
// fan-out: notify() broadcasts the current serial to every connected
// session (the poke that makes caches come back with a Serial Query).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/serve/net.hpp"
#include "serve/epoch.hpp"

namespace rpkic::serve {

class RtrCore {
public:
    struct Options {
        obs::Registry* registry = nullptr;  ///< rc_rtr_* instruments
    };

    RtrCore(EpochStore& store, Options options);
    explicit RtrCore(EpochStore& store) : RtrCore(store, Options()) {}

    /// Consumes every complete PDU buffered in `in` (erasing what was
    /// parsed) and appends responses to `out`. Returns false when the
    /// session must close after `out` drains (protocol error, version
    /// mismatch, or a client Error Report).
    bool consume(std::string& in, std::string& out);

    /// Serial Notify for the current epoch ("" before the first publish).
    std::string notifyPdu() const;

private:
    enum class Query : std::uint8_t { Serial, Reset };
    enum class Response : std::uint8_t { Delta, Snapshot, CacheReset, NoData };

    /// Consumes every complete PDU at the front of `in`; `used` returns
    /// how many bytes were parsed.
    bool consumePdus(std::string_view in, std::size_t& used, std::string& out);
    bool handleSerialQuery(const PduHeader& header, std::string_view pdu, std::string& out);
    bool handleResetQuery(std::string& out);
    void countQuery(Query type);
    void countResponse(Response kind);

    EpochStore& store_;
    Options options_;
    // One slot per label value, registered on first use so the metrics
    // text lists only the kinds actually served.
    std::array<obs::Counter*, 2> queryCounters_{};
    std::array<obs::Counter*, 4> responseCounters_{};
    obs::Counter* deltaBytes_ = nullptr;
    obs::Counter* snapshotBytes_ = nullptr;
    obs::Counter* protocolErrors_ = nullptr;
};

class RtrServer {
public:
    struct Options {
        obs::SocketServer::Options socket;
        RtrCore::Options core;
    };

    RtrServer(EpochStore& store, Options options);
    explicit RtrServer(EpochStore& store) : RtrServer(store, Options()) {}
    RtrServer(const RtrServer&) = delete;
    RtrServer& operator=(const RtrServer&) = delete;
    ~RtrServer();

    /// Binds `address` ("host:port", port 0 = ephemeral) and starts the
    /// loop thread. Returns false with *error set on failure.
    bool start(const std::string& address, std::string* error);
    void stop();

    bool running() const { return server_ != nullptr && server_->running(); }
    const std::string& boundAddress() const { return boundAddress_; }
    std::uint16_t port() const { return port_; }
    std::size_t sessionsOpen() const { return server_ ? server_->sessionsOpen() : 0; }

    /// Broadcasts a Serial Notify for the current epoch to every
    /// connected session. Call after EpochStore::publish(). No-op before
    /// the first publish or when not running.
    void notify();

private:
    struct Proto;

    EpochStore& store_;
    Options options_;
    std::unique_ptr<Proto> proto_;
    std::unique_ptr<obs::SocketServer> server_;
    std::string boundAddress_;
    std::uint16_t port_ = 0;
};

}  // namespace rpkic::serve
