// Fuzz driver for the cache side of RTR (serve/rtr: RtrCore::consume)
// against an EpochStore holding two published epochs. Input layout: byte 0
// names k = byte0 % 8 chunk sizes, bytes 1..k are those sizes (0-255, used
// in turn), the rest is what the router sends. Oracles:
//
//  (a) consume() never throws;
//  (b) after a true return, `in` holds less than one complete PDU;
//  (c) `out` parses as whole version-1 cache PDUs;
//  (d) each Cache Response is closed by one End of Data that carries the
//      store's session and the serial its payload reaches: the current
//      epoch's, with the payload its snapshot, the delta from the first
//      epoch, or nothing (a client already current);
//  (e) the same bytes fed in those chunks, consuming after each until a
//      false return, give the same `out`, result and leftover `in` as
//      when fed at once;
//  (f) a false return ends `out` with an Error Report, unless the PDU
//      that ended the session was itself an Error Report from the router.
//
// Any violation aborts. The seeds under fuzz/corpus/rtr (gen_corpus,
// sampleRtrInputs) are real Reset Queries and Serial Queries against this
// store, pipelined, split and malformed.
//
// Built as a libFuzzer target under -DRC_FUZZ=ON (clang), or linked with
// driver_main.cpp into a seeded deterministic ctest case otherwise.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "seed_corpus.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"

namespace rpkic::fuzz {
namespace {

using serve::PduHeader;
using serve::PduType;

[[noreturn]] void fail(const char* what) {
    std::fprintf(stderr, "fuzz_rtr: oracle violated: %s\n", what);
    std::abort();
}

std::uint32_t u32At(std::string_view bytes, std::size_t at) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) v = v << 8 | static_cast<unsigned char>(bytes[at + i]);
    return v;
}

RoaTuple tuple(const char* prefix, std::uint8_t maxLength, Asn asn) {
    return RoaTuple{IpPrefix::parse(prefix), maxLength, asn};
}

struct Cache {
    obs::Registry registry;
    serve::EpochStore store{{.capacity = 8,
                             .firstSerial = kRtrFirstSerial,
                             .sessionId = kRtrSession,
                             .registry = &registry}};
    std::shared_ptr<const serve::Epoch> current;

    Cache() {
        store.publish(1, std::make_shared<const RpkiState>(std::vector<RoaTuple>{
                             tuple("10.0.0.0/8", 24, 64500), tuple("192.0.2.0/24", 24, 64501),
                             tuple("2001:db8::/32", 48, 64502)}));
        current = store.publish(
            2, std::make_shared<const RpkiState>(std::vector<RoaTuple>{
                   tuple("10.0.0.0/8", 24, 64500), tuple("198.51.100.0/24", 24, 64503),
                   tuple("2001:db8::/32", 48, 64502), tuple("2001:db8:1::/48", 48, 64504)}));
    }
};

Cache& cache() {
    static Cache c;
    return c;
}

struct Outcome {
    bool keep = true;
    std::string in;
    std::string out;
};

Outcome consume(serve::RtrCore& core, Outcome o) {
    try {
        o.keep = core.consume(o.in, o.out);
    } catch (...) {
        fail("consume threw");
    }
    return o;
}

/// Oracles (c) and (d): whole cache PDUs; Cache Response .. End of Data.
/// Returns the type of the last PDU.
std::uint8_t checkOut(std::string_view out) {
    const serve::Epoch& current = *cache().current;
    std::uint8_t last = 0;
    bool inResponse = false;
    std::size_t payloadFrom = 0;
    for (std::size_t at = 0; at < out.size();) {
        PduHeader h;
        if (!serve::peekPduHeader(out.substr(at), &h)) fail("torn PDU header in out");
        if (h.version != serve::kRtrVersion) fail("out PDU not version 1");
        if (h.length < 8 || h.length > out.size() - at) fail("torn PDU in out");
        const std::string_view pdu = out.substr(at, h.length);
        switch (static_cast<PduType>(h.type)) {
            case PduType::CacheResponse:
                if (h.length != 8 || h.session != kRtrSession) fail("bad Cache Response");
                if (inResponse) fail("Cache Response inside a Cache Response");
                inResponse = true;
                payloadFrom = at + h.length;
                break;
            case PduType::Ipv4Prefix:
            case PduType::Ipv6Prefix:
                if (h.length != (h.type == 4 ? 20u : 32u)) fail("bad prefix PDU length");
                if (!inResponse) fail("prefix PDU outside a Cache Response");
                break;
            case PduType::EndOfData: {
                if (h.length != serve::kEndOfDataBytes) fail("bad End of Data length");
                if (!inResponse) fail("End of Data without a Cache Response");
                if (h.session != kRtrSession) fail("End of Data carries another session");
                if (u32At(pdu, 8) != current.serial) fail("End of Data serial not current");
                const std::string_view payload = out.substr(payloadFrom, at - payloadFrom);
                if (payload != current.snapshotPdus && payload != current.deltaPdus &&
                    !payload.empty()) {
                    fail("payload does not reach the End of Data serial");
                }
                inResponse = false;
                break;
            }
            case PduType::CacheReset:
                if (h.length != 8 || inResponse) fail("bad Cache Reset");
                break;
            case PduType::ErrorReport: {
                if (inResponse || h.length < 16) fail("bad Error Report");
                const std::uint64_t inner = u32At(pdu, 8);
                if (inner > h.length - 16u) fail("Error Report PDU overruns");
                if (16 + inner + u32At(pdu, 12 + inner) != h.length) {
                    fail("Error Report lengths disagree");
                }
                break;
            }
            default:
                fail("not a cache PDU");
        }
        last = h.type;
        at += h.length;
    }
    if (inResponse) fail("Cache Response not closed by End of Data");
    return last;
}

/// True when the first PDU consume() does not answer as a query is a
/// version-1 Error Report: the router ended the session, and the cache
/// must not answer it.
bool endedByRouterErrorReport(std::string_view wire) {
    for (std::size_t at = 0;;) {
        PduHeader h;
        if (!serve::peekPduHeader(wire.substr(at), &h)) return false;
        if (h.version != serve::kRtrVersion) return false;
        const auto type = static_cast<PduType>(h.type);
        const bool query = (type == PduType::SerialQuery && h.length == 12) ||
                           (type == PduType::ResetQuery && h.length == 8);
        if (!query) return type == PduType::ErrorReport;
        at += h.length;
    }
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    const std::size_t k = size == 0 ? 0 : std::min<std::size_t>(data[0] % 8, size - 1);
    const std::size_t header = size == 0 ? 0 : 1 + k;
    const std::string_view sizes(reinterpret_cast<const char*>(data) + std::min<std::size_t>(1, size),
                                 k);
    const std::string_view wire(reinterpret_cast<const char*>(data) + header, size - header);

    serve::RtrCore whole(cache().store);
    Outcome once;
    once.in = std::string(wire);
    once = consume(whole, std::move(once));

    if (once.keep) {
        PduHeader h;
        if (serve::peekPduHeader(once.in, &h) && once.in.size() >= h.length) {
            fail("a complete PDU left in `in` after a true return");
        }
    }
    const std::uint8_t last = checkOut(once.out);
    if (!once.keep && last != static_cast<std::uint8_t>(PduType::ErrorReport) &&
        !endedByRouterErrorReport(wire)) {
        fail("session closed without an Error Report");
    }

    std::size_t cycle = 0;
    for (const char s : sizes) cycle += static_cast<unsigned char>(s);
    if (cycle == 0) return;
    serve::RtrCore chunked(cache().store);
    Outcome split;
    for (std::size_t i = 0, pos = 0; pos < wire.size() && split.keep; ++i) {
        const std::size_t step = std::min<std::size_t>(
            static_cast<unsigned char>(sizes[i % sizes.size()]), wire.size() - pos);
        split.in.append(wire.substr(pos, step));
        pos += step;
        split = consume(chunked, std::move(split));
    }
    if (wire.empty()) split = consume(chunked, std::move(split));
    if (split.keep != once.keep || split.out != once.out) {
        fail("split feed answers differently from a whole feed");
    }
    if (once.keep && split.in != once.in) fail("split feed leaves other bytes buffered");
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
