#include "routers.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>

#include "bench.hpp"

namespace pipebench {

namespace {

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint32_t readU32(std::string_view b, std::size_t at) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(b[at + 3]));
}

constexpr std::size_t kEodBytes = 24;

}  // namespace

std::uint64_t tupleHash(const RoaTuple& t) {
    const std::uint64_t meta = static_cast<std::uint64_t>(t.prefix.length) |
                               (static_cast<std::uint64_t>(t.maxLength) << 8) |
                               (static_cast<std::uint64_t>(t.prefix.family) << 16) |
                               (static_cast<std::uint64_t>(t.asn) << 32);
    return mix(t.prefix.addr.hi ^ mix(t.prefix.addr.lo ^ mix(meta)));
}

std::uint64_t setHash(const RpkiState& s) {
    std::uint64_t h = 0;
    for (const RoaTuple& t : s.tuples()) h += tupleHash(t);
    return h;
}

bool decodePrefixPdu(std::string_view pdu, RoaTuple* tuple, bool* announce) {
    serve::PduHeader header;
    if (!serve::peekPduHeader(pdu, &header) || header.length != pdu.size()) return false;
    const auto type = static_cast<serve::PduType>(header.type);
    const unsigned char flags = static_cast<unsigned char>(pdu[8]);
    if (flags > 1) return false;
    *announce = flags == 1;
    const auto length = static_cast<std::uint8_t>(pdu[9]);
    tuple->maxLength = static_cast<std::uint8_t>(pdu[10]);
    if (type == serve::PduType::Ipv4Prefix && pdu.size() == 20) {
        if (length > 32 || tuple->maxLength > 32) return false;
        tuple->prefix = IpPrefix::v4(readU32(pdu, 12), length);
        tuple->asn = readU32(pdu, 16);
        return true;
    }
    if (type == serve::PduType::Ipv6Prefix && pdu.size() == 32) {
        if (length > 128 || tuple->maxLength > 128) return false;
        const U128 addr((static_cast<std::uint64_t>(readU32(pdu, 12)) << 32) | readU32(pdu, 16),
                        (static_cast<std::uint64_t>(readU32(pdu, 20)) << 32) | readU32(pdu, 24));
        tuple->prefix = IpPrefix::v6(addr, length);
        tuple->asn = readU32(pdu, 28);
        return true;
    }
    return false;
}

// ---------------------------------------------------------------------------
// TruthBook

void TruthBook::add(std::uint32_t serial, Entry entry) {
    bySerial_[serial] = entry;
    // Keep a little more history than the epoch ring (64) holds.
    while (bySerial_.size() > 80) bySerial_.erase(bySerial_.begin());
}

const TruthBook::Entry* TruthBook::find(std::uint32_t serial) const {
    const auto it = bySerial_.find(serial);
    return it == bySerial_.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// SimFleet

SimFleet::SimFleet(std::size_t sessions, std::uint64_t seed) : rng_(seed ^ 0x5851f42d4c957f2dull) {
    sessions_.resize(sessions);
    for (Session& s : sessions_) {
        while (s.period < 64 && rng_.nextBool(0.5)) s.period *= 2;
        s.phase = static_cast<std::uint32_t>(rng_.nextBelow(s.period));
        s.born = static_cast<std::uint32_t>(rng_.nextBelow(16));
    }
}

FleetRound SimFleet::poll(serve::RtrCore& core, const TruthBook& truth, std::uint32_t tick) {
    FleetRound out;
    memo_.clear();
    for (Session& s : sessions_) {
        if (tick < s.born || (tick - s.born) % s.period != s.phase) continue;
        if (!pollOne(core, truth, s, out, 0)) {
            ++out.failures;
            s.synced = false;
        }
    }
    return out;
}

bool SimFleet::pollOne(serve::RtrCore& core, const TruthBook& truth, Session& s,
                       FleetRound& out, int depth) {
    std::string in, response;
    const bool reset = !s.synced;
    if (reset) {
        serve::appendResetQuery(in);
    } else {
        serve::appendSerialQuery(in, s.sessionId, s.serial);
    }
    const std::uint64_t start = nowNs();
    const bool keep = core.consume(in, response);
    out.consumeUs.push_back(static_cast<float>(static_cast<double>(nowNs() - start) / 1e3));
    ++out.polls;
    out.wireBytes += response.size();

    serve::PduHeader header;
    if (!keep || !serve::peekPduHeader(response, &header)) return false;
    const auto type = static_cast<serve::PduType>(header.type);
    if (type == serve::PduType::CacheReset && !reset && depth == 0) {
        ++out.cacheResets;
        s.synced = false;
        return pollOne(core, truth, s, out, depth + 1);
    }
    if (type != serve::PduType::CacheResponse || response.size() < 8 + kEodBytes) return false;
    serve::PduHeader eod;
    const std::string_view tail = std::string_view(response).substr(response.size() - kEodBytes);
    if (!serve::peekPduHeader(tail, &eod) ||
        static_cast<serve::PduType>(eod.type) != serve::PduType::EndOfData ||
        eod.length != kEodBytes) {
        return false;
    }
    const std::uint32_t toSerial = readU32(tail, 8);

    const auto key = std::make_tuple(reset, header.session, reset ? 0u : s.serial);
    auto it = memo_.find(key);
    Verified fresh;
    const Verified* v = nullptr;
    if (it != memo_.end() && it->second.bytes == response) {
        v = &it->second;
    } else {
        fresh = verify(response, reset, s, truth, toSerial);
        if (it == memo_.end()) {
            v = &memo_.emplace(key, std::move(fresh)).first->second;
        } else {
            v = &fresh;
        }
    }
    if (!v->ok) return false;
    const TruthBook::Entry* expected = truth.find(toSerial);
    const std::uint64_t digest = (reset ? 0 : s.digest) + v->deltaDigest;
    if (expected == nullptr || digest != expected->hash) return false;

    if (reset) {
        ++out.snapshotResponses;
    } else {
        ++out.deltaResponses;
    }
    s.sessionId = header.session;
    s.serial = toSerial;
    s.digest = digest;
    s.synced = true;
    // Crash-and-reconnect tail: the cache loses its state after this poll.
    if (rng_.nextBelow(64) == 0) s.synced = false;
    return true;
}

SimFleet::Verified SimFleet::verify(const std::string& response, bool reset, const Session& s,
                                    const TruthBook& truth, std::uint32_t toSerial) {
    Verified v;
    v.bytes = response;
    const TruthBook::Entry* to = truth.find(toSerial);
    const TruthBook::Entry* from = reset ? nullptr : truth.find(s.serial);
    if (to == nullptr || (!reset && from == nullptr)) return v;
    std::uint64_t digest = 0;
    std::size_t announces = 0;
    const std::string_view body =
        std::string_view(response).substr(8, response.size() - 8 - kEodBytes);
    std::size_t at = 0;
    while (at < body.size()) {
        serve::PduHeader h;
        if (!serve::peekPduHeader(body.substr(at), &h) || h.length < 8 ||
            at + h.length > body.size()) {
            return v;
        }
        RoaTuple t;
        bool announce = false;
        if (!decodePrefixPdu(body.substr(at, h.length), &t, &announce)) return v;
        if (announce) {
            digest += tupleHash(t);
            ++announces;
        } else {
            if (reset) return v;
            digest -= tupleHash(t);
        }
        at += h.length;
    }
    if (reset && announces != to->tuples) return v;
    v.deltaDigest = digest;
    v.ok = (reset ? 0 : from->hash) + digest == to->hash;
    return v;
}

// ---------------------------------------------------------------------------
// TcpRouters

struct TcpRouters::Session {
    int fd = -1;
    std::string in;
    std::size_t consumed = 0;
    std::set<RoaTuple> vrps;
    std::uint64_t digest = 0;  ///< setHash(vrps), kept incrementally
    std::vector<std::pair<RoaTuple, bool>> pending;
    std::uint16_t sessionId = 0;
    std::uint32_t serial = 0;
    bool resetPending = false;
    bool inResponse = false;
    bool bad = false;
    std::uint64_t queryNanos = 0;
    std::uint64_t responseNanos = 0;
};

TcpRouters::TcpRouters(int sessions) : count_(sessions) {
    if (::pipe(wakePipe_) != 0) throw std::runtime_error("pipe() failed");
    thread_ = std::thread([this] { loop(); });
}

TcpRouters::~TcpRouters() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake();
    thread_.join();
    closeAll();
    ::close(wakePipe_[0]);
    ::close(wakePipe_[1]);
}

void TcpRouters::wake() {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wakePipe_[1], &byte, 1);
}

void TcpRouters::post(Command command) {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        commands_.push_back(command);
        ++posted_;
    }
    wake();
}

void TcpRouters::connect(std::uint16_t port, std::uint32_t serial, TruthBook::Entry truth,
                         std::uint64_t startNanos) {
    expect(serial, truth, startNanos);
    post({true, port});
}

void TcpRouters::expect(std::uint32_t serial, TruthBook::Entry truth, std::uint64_t startNanos) {
    const std::lock_guard<std::mutex> lock(mutex_);
    expectSerial_ = serial;
    expectTruth_ = truth;
    startNanos_ = startNanos;
    reached_ = 0;
    failedSessions_ = 0;
    lastEodNanos_ = 0;
    latenciesUs_.clear();
    untilQueryUs_.clear();
    queryToResponseUs_.clear();
    responseToEodUs_.clear();
    bytesReceived_ = 0;
    armed_ = true;
}

void TcpRouters::disconnect() {
    post({false, 0});
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t ticket = posted_;
    cv_.wait(lock, [&] { return completed_ >= ticket; });
}

TcpRouters::Result TcpRouters::wait(int timeoutMs) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs),
                 [&] { return reached_ >= count_; });
    Result r;
    r.failures = static_cast<std::uint64_t>(failedSessions_ + (count_ - std::min(reached_, count_)));
    r.lastEodNanos = lastEodNanos_;
    r.notifyToEodUs = latenciesUs_;
    r.untilQueryUs = untilQueryUs_;
    r.queryToResponseUs = queryToResponseUs_;
    r.responseToEodUs = responseToEodUs_;
    r.bytesReceived = bytesReceived_;
    armed_ = false;
    return r;
}

std::uint64_t TcpRouters::protocolErrors() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return protocolErrors_;
}

void TcpRouters::closeAll() {
    for (auto& s : sessions_) {
        if (s->fd >= 0) ::close(s->fd);
    }
    sessions_.clear();
}

void TcpRouters::handleCommands() {
    std::vector<Command> todo;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        todo.swap(commands_);
    }
    for (const Command& c : todo) {
        closeAll();
        if (!c.connect) continue;
        for (int i = 0; i < count_; ++i) {
            auto s = std::make_unique<Session>();
            s->fd = ::socket(AF_INET, SOCK_STREAM, 0);
            int one = 1;
            ::setsockopt(s->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(c.port);
            addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
            std::string query;
            serve::appendResetQuery(query);
            if (s->fd < 0 ||
                ::connect(s->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
                ::send(s->fd, query.data(), query.size(), MSG_NOSIGNAL) !=
                    static_cast<ssize_t>(query.size())) {
                s->bad = true;
            }
            s->queryNanos = nowNs();
            s->resetPending = true;
            sessions_.push_back(std::move(s));
        }
    }
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        completed_ += todo.size();
    }
    cv_.notify_all();
}

void TcpRouters::loop() {
    std::vector<pollfd> fds;
    while (true) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (stop_) return;
        }
        fds.clear();
        fds.push_back({wakePipe_[0], POLLIN, 0});
        for (auto& s : sessions_) fds.push_back({s->bad ? -1 : s->fd, POLLIN, 0});
        if (::poll(fds.data(), fds.size(), 1000) < 0) continue;
        if ((fds[0].revents & POLLIN) != 0) {
            char drain[64];
            [[maybe_unused]] const ssize_t n = ::read(wakePipe_[0], drain, sizeof drain);
            handleCommands();
            continue;  // the session table may have changed
        }
        for (std::size_t i = 0; i < sessions_.size(); ++i) {
            if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            Session& s = *sessions_[i];
            if (!readSession(s)) {
                s.bad = true;
                const std::lock_guard<std::mutex> lock(mutex_);
                ++protocolErrors_;
                if (armed_) {
                    ++failedSessions_;
                    ++reached_;
                }
                cv_.notify_all();
            }
        }
    }
}

bool TcpRouters::readSession(Session& s) {
    char chunk[65536];
    const ssize_t n = ::recv(s.fd, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    s.in.append(chunk, static_cast<std::size_t>(n));
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        bytesReceived_ += static_cast<std::uint64_t>(n);
    }
    while (true) {
        serve::PduHeader h;
        const std::string_view rest = std::string_view(s.in).substr(s.consumed);
        if (!serve::peekPduHeader(rest, &h)) break;
        if (h.length < 8 || h.length > (1u << 20)) return false;
        if (rest.size() < h.length) break;
        if (!handlePdu(s, rest.substr(0, h.length))) return false;
        s.consumed += h.length;
    }
    s.in.erase(0, s.consumed);
    s.consumed = 0;
    return true;
}

bool TcpRouters::handlePdu(Session& s, std::string_view pdu) {
    serve::PduHeader h;
    serve::peekPduHeader(pdu, &h);
    std::string query;
    switch (static_cast<serve::PduType>(h.type)) {
        case serve::PduType::SerialNotify:
            if (s.resetPending || s.inResponse) return true;  // a query is in flight
            serve::appendSerialQuery(query, s.sessionId, s.serial);
            s.queryNanos = nowNs();
            return ::send(s.fd, query.data(), query.size(), MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(query.size());
        case serve::PduType::CacheReset:
            s.resetPending = true;
            serve::appendResetQuery(query);
            return ::send(s.fd, query.data(), query.size(), MSG_NOSIGNAL) ==
                   static_cast<ssize_t>(query.size());
        case serve::PduType::CacheResponse:
            s.responseNanos = nowNs();
            s.inResponse = true;
            s.sessionId = h.session;
            s.pending.clear();
            return true;
        case serve::PduType::Ipv4Prefix:
        case serve::PduType::Ipv6Prefix: {
            RoaTuple t;
            bool announce = false;
            if (!s.inResponse || !decodePrefixPdu(pdu, &t, &announce)) return false;
            s.pending.emplace_back(t, announce);
            return true;
        }
        case serve::PduType::EndOfData: {
            if (!s.inResponse || h.length != kEodBytes) return false;
            if (s.resetPending) {
                s.vrps.clear();
                s.digest = 0;
            }
            for (const auto& [t, announce] : s.pending) {
                // RFC 8210 §5.6: announcing a held tuple or withdrawing an
                // absent one is a protocol error.
                if (announce ? !s.vrps.insert(t).second : s.vrps.erase(t) != 1) return false;
                if (announce) {
                    s.digest += tupleHash(t);
                } else {
                    s.digest -= tupleHash(t);
                }
            }
            s.pending.clear();
            s.inResponse = false;
            s.resetPending = false;
            finishEod(s, readU32(pdu, 8));
            return true;
        }
        default:
            return false;  // Error Report or anything a cache must not send
    }
}

void TcpRouters::finishEod(Session& s, std::uint32_t serial) {
    const std::uint64_t eodNanos = nowNs();
    s.serial = serial;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_ || serial != expectSerial_) return;
    const std::uint64_t start = startNanos_;
    const bool same = s.vrps.size() == expectTruth_.tuples && s.digest == expectTruth_.hash;
    ++reached_;
    if (!same) ++failedSessions_;
    lastEodNanos_ = std::max(lastEodNanos_, eodNanos);
    auto us = [](std::uint64_t from, std::uint64_t to) {
        return to > from ? static_cast<double>(to - from) / 1e3 : 0.0;
    };
    latenciesUs_.push_back(us(start, eodNanos));
    untilQueryUs_.push_back(us(start, s.queryNanos));
    queryToResponseUs_.push_back(us(s.queryNanos, s.responseNanos));
    responseToEodUs_.push_back(us(s.responseNanos, eodNanos));
    cv_.notify_all();
}

}  // namespace pipebench
