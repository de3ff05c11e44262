#include "serve/rtr.hpp"

#include <optional>
#include <utility>

namespace rpkic::serve {

namespace {

/// PDUs a router may legitimately send a cache are all small; anything
/// longer is garbage and the session is dropped before buffering it.
constexpr std::uint32_t kMaxInboundPduBytes = 4096;

// End of Data timing advice: the RFC 8210 §6 defaults.
constexpr std::uint32_t kRefreshSeconds = 3600;
constexpr std::uint32_t kRetrySeconds = 600;
constexpr std::uint32_t kExpireSeconds = 7200;

}  // namespace

RtrCore::RtrCore(EpochStore& store, Options options)
    : store_(store), options_(options) {
    if (options_.registry != nullptr) {
        deltaBytes_ = &options_.registry->counter(
            "rc_rtr_delta_bytes_total", "Prefix PDU bytes served as incremental deltas");
        snapshotBytes_ = &options_.registry->counter(
            "rc_rtr_snapshot_bytes_total", "Prefix PDU bytes served as full snapshots");
        protocolErrors_ = &options_.registry->counter(
            "rc_rtr_protocol_errors_total", "Inbound PDUs rejected as protocol errors");
    }
}

void RtrCore::countQuery(Query type) {
    obs::Registry* reg = options_.registry;
    if (reg == nullptr) return;
    obs::Counter*& slot = queryCounters_[static_cast<std::size_t>(type)];
    if (slot == nullptr) {
        slot = &reg->counter("rc_rtr_queries_total", "RTR queries received, by type",
                             {{"type", type == Query::Serial ? "serial" : "reset"}});
    }
    slot->inc();
}

void RtrCore::countResponse(Response kind) {
    obs::Registry* reg = options_.registry;
    if (reg == nullptr) return;
    obs::Counter*& slot = responseCounters_[static_cast<std::size_t>(kind)];
    if (slot == nullptr) {
        static constexpr const char* kKinds[] = {"delta", "snapshot", "cache-reset", "no-data"};
        slot = &reg->counter("rc_rtr_responses_total", "RTR responses sent, by kind",
                             {{"kind", kKinds[static_cast<std::size_t>(kind)]}});
    }
    slot->inc();
}

bool RtrCore::handleSerialQuery(const PduHeader& header, std::string_view pdu,
                                std::string& out) {
    countQuery(Query::Serial);
    const std::uint32_t clientSerial =
        (static_cast<std::uint32_t>(static_cast<unsigned char>(pdu[8])) << 24) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(pdu[9])) << 16) |
        (static_cast<std::uint32_t>(static_cast<unsigned char>(pdu[10])) << 8) |
        static_cast<std::uint32_t>(static_cast<unsigned char>(pdu[11]));
    if (store_.current() == nullptr) {
        appendErrorReport(out, RtrError::NoDataAvailable, "", "no epoch published yet");
        countResponse(Response::NoData);
        return true;
    }
    if (header.session != store_.sessionId()) {
        // A serial from some other cache lifetime is meaningless here;
        // force the client back to a full reset.
        appendCacheReset(out);
        countResponse(Response::CacheReset);
        return true;
    }
    // The End of Data serial comes from the same locked read as the
    // payload: a publish in between must not let the payload run ahead
    // of the serial it is announced under (RFC 8210 §5.6).
    const std::optional<EpochStore::DeltaReply> reply = store_.appendDeltaReply(clientSerial, out);
    if (!reply.has_value()) {
        appendCacheReset(out);
        countResponse(Response::CacheReset);
        return true;
    }
    appendEndOfData(out, store_.sessionId(), reply->serial, kRefreshSeconds, kRetrySeconds,
                    kExpireSeconds);
    if (deltaBytes_ != nullptr) deltaBytes_->inc(reply->payloadBytes);
    countResponse(Response::Delta);
    return true;
}

bool RtrCore::handleResetQuery(std::string& out) {
    countQuery(Query::Reset);
    const std::shared_ptr<const Epoch> current = store_.current();
    if (current == nullptr) {
        appendErrorReport(out, RtrError::NoDataAvailable, "", "no epoch published yet");
        countResponse(Response::NoData);
        return true;
    }
    out.reserve(out.size() + kCacheResponseBytes + current->snapshotPdus.size() +
                kEndOfDataBytes);
    appendCacheResponse(out, store_.sessionId());
    out += current->snapshotPdus;
    appendEndOfData(out, store_.sessionId(), current->serial, kRefreshSeconds, kRetrySeconds,
                    kExpireSeconds);
    if (snapshotBytes_ != nullptr) snapshotBytes_->inc(current->snapshotPdus.size());
    countResponse(Response::Snapshot);
    return true;
}

bool RtrCore::consume(std::string& in, std::string& out) {
    std::size_t used = 0;
    const bool keep = consumePdus(in, used, out);
    in.erase(0, used);
    return keep;
}

bool RtrCore::consumePdus(std::string_view in, std::size_t& used, std::string& out) {
    while (true) {
        const std::string_view rest = in.substr(used);
        PduHeader header;
        if (!peekPduHeader(rest, &header)) return true;  // incomplete header
        if (header.version != kRtrVersion) {
            if (protocolErrors_ != nullptr) protocolErrors_->inc();
            appendErrorReport(out, RtrError::UnsupportedVersion, rest.substr(0, 8),
                              "expected protocol version 1");
            used = in.size();
            return false;
        }
        if (header.length < 8 || header.length > kMaxInboundPduBytes) {
            if (protocolErrors_ != nullptr) protocolErrors_->inc();
            appendErrorReport(out, RtrError::CorruptData, rest.substr(0, 8),
                              "implausible PDU length");
            used = in.size();
            return false;
        }
        if (rest.size() < header.length) return true;  // incomplete body
        const std::string_view pdu = rest.substr(0, header.length);
        used += header.length;

        switch (static_cast<PduType>(header.type)) {
            case PduType::SerialQuery:
                if (header.length != 12) {
                    if (protocolErrors_ != nullptr) protocolErrors_->inc();
                    appendErrorReport(out, RtrError::CorruptData, pdu,
                                      "serial query must be 12 bytes");
                    return false;
                }
                if (!handleSerialQuery(header, pdu, out)) return false;
                break;
            case PduType::ResetQuery:
                if (header.length != 8) {
                    if (protocolErrors_ != nullptr) protocolErrors_->inc();
                    appendErrorReport(out, RtrError::CorruptData, pdu,
                                      "reset query must be 8 bytes");
                    return false;
                }
                if (!handleResetQuery(out)) return false;
                break;
            case PduType::ErrorReport:
                // The router is reporting us; RFC 8210 §5.10 forbids
                // answering an Error Report with an Error Report. Drop.
                if (protocolErrors_ != nullptr) protocolErrors_->inc();
                return false;
            default:
                if (protocolErrors_ != nullptr) protocolErrors_->inc();
                appendErrorReport(out, RtrError::UnsupportedPduType, pdu,
                                  "unexpected PDU type from router");
                return false;
        }
    }
}

std::string RtrCore::notifyPdu() const {
    const std::shared_ptr<const Epoch> current = store_.current();
    if (current == nullptr) return "";
    std::string out;
    appendSerialNotify(out, store_.sessionId(), current->serial);
    return out;
}

// ---------------------------------------------------------------------------

struct RtrServer::Proto : obs::SocketProtocol {
    RtrCore core;

    explicit Proto(EpochStore& store, const RtrCore::Options& options)
        : core(store, options) {}

    void onData(obs::NetSession& session) override {
        if (!core.consume(session.in, session.out)) {
            session.closeAfterWrite = true;
            if (session.pendingOut() == 0) session.dropNow = true;
        }
    }
};

RtrServer::RtrServer(EpochStore& store, Options options)
    : store_(store), options_(std::move(options)) {}

RtrServer::~RtrServer() {
    stop();
}

bool RtrServer::start(const std::string& address, std::string* error) {
    if (running()) {
        *error = "server already running";
        return false;
    }
    auto proto = std::make_unique<Proto>(store_, options_.core);
    auto server = std::make_unique<obs::SocketServer>(options_.socket);
    if (!server->start(address, proto.get(), error)) return false;
    proto_ = std::move(proto);
    server_ = std::move(server);
    boundAddress_ = server_->boundAddress();
    port_ = server_->port();
    return true;
}

void RtrServer::stop() {
    if (server_ != nullptr) server_->stop();
    server_.reset();
    proto_.reset();
}

void RtrServer::notify() {
    if (server_ == nullptr || proto_ == nullptr) return;
    const std::string pdu = proto_->core.notifyPdu();
    if (!pdu.empty()) server_->broadcast(pdu);
}

}  // namespace rpkic::serve
