// RTR serving plane (src/serve/): RFC 1982 serial arithmetic, PDU
// encoders against the RFC 8210 wire layout, EpochStore publish / delta
// / eviction semantics (wraparound included), the RtrCore session state
// machine as pure bytes-in/bytes-out, and the socket-level RtrServer
// with Serial Notify fan-out. See docs/SERVING.md.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/epoch.hpp"
#include "serve/rtr.hpp"

namespace rpkic::serve {
namespace {

RoaTuple tuple(const char* prefix, std::uint8_t maxLength, Asn asn) {
    return RoaTuple{IpPrefix::parse(prefix), maxLength, asn};
}

std::shared_ptr<const RpkiState> state(std::vector<RoaTuple> tuples) {
    return std::make_shared<const RpkiState>(std::move(tuples));
}

struct ParsedPdu {
    PduHeader header;
    std::string bytes;  ///< the whole PDU, header included
};

/// Splits a response buffer into PDUs; fails the test on torn framing.
std::vector<ParsedPdu> parsePdus(const std::string& buf) {
    std::vector<ParsedPdu> pdus;
    std::size_t at = 0;
    while (at < buf.size()) {
        ParsedPdu pdu;
        EXPECT_TRUE(peekPduHeader(std::string_view(buf).substr(at), &pdu.header));
        EXPECT_GE(pdu.header.length, 8u);
        EXPECT_LE(at + pdu.header.length, buf.size());
        if (at + pdu.header.length > buf.size()) break;
        pdu.bytes = buf.substr(at, pdu.header.length);
        at += pdu.header.length;
        pdus.push_back(std::move(pdu));
    }
    return pdus;
}

std::uint32_t u32At(const std::string& bytes, std::size_t at) {
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) << 24) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2])) << 8) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]));
}

/// The delta payload a Serial Query from `serial` receives (the reply
/// body after its Cache Response), or nullopt for a Cache Reset. Also
/// checks the reply was sized once, End of Data included.
std::optional<std::string> deltasSince(const EpochStore& store, std::uint32_t serial) {
    std::string out;
    const std::optional<EpochStore::DeltaReply> reply = store.appendDeltaReply(serial, out);
    if (!reply.has_value()) {
        EXPECT_TRUE(out.empty());
        return std::nullopt;
    }
    EXPECT_EQ(reply->serial, store.current()->serial);
    EXPECT_EQ(out.size(), kCacheResponseBytes + reply->payloadBytes);
    EXPECT_GE(out.capacity(), out.size() + kEndOfDataBytes);
    return out.substr(kCacheResponseBytes);
}

// ---------------------------------------------------------------------------
// RFC 1982 serial arithmetic

TEST(SerialLess, TableDriven) {
    struct Case {
        std::uint32_t a, b;
        bool aBeforeB, bBeforeA;
    };
    const Case cases[] = {
        {0, 0, false, false},
        {5, 5, false, false},
        {0, 1, true, false},
        {1, 2, true, false},
        {0, 0x7fffffffu, true, false},          // max forward distance
        {0xffffffffu, 0, true, false},          // increment wraps
        {0xfffffffeu, 2, true, false},          // delta spans the wrap
        {0x80000000u, 0x80000001u, true, false},
        {42, 42 + 0x7fffffffu, true, false},
        // The 2^31 antipode is undefined in RFC 1982: neither precedes.
        {0, 0x80000000u, false, false},
        {0x12345678u, 0x12345678u + 0x80000000u, false, false},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(serialLess(c.a, c.b), c.aBeforeB) << c.a << " < " << c.b;
        EXPECT_EQ(serialLess(c.b, c.a), c.bBeforeA) << c.b << " < " << c.a;
    }
}

// ---------------------------------------------------------------------------
// PDU encoders vs the RFC 8210 wire layout

TEST(PduEncoding, HeadersRoundTripThroughPeek) {
    struct Case {
        std::string bytes;
        PduType type;
        std::uint16_t session;
        std::uint32_t length;
    };
    std::vector<Case> cases;
    {
        std::string out;
        appendSerialNotify(out, 7, 123);
        cases.push_back({out, PduType::SerialNotify, 7, 12});
    }
    {
        std::string out;
        appendSerialQuery(out, 7, 123);
        cases.push_back({out, PduType::SerialQuery, 7, 12});
    }
    {
        std::string out;
        appendResetQuery(out);
        cases.push_back({out, PduType::ResetQuery, 0, 8});
    }
    {
        std::string out;
        appendCacheResponse(out, 9);
        cases.push_back({out, PduType::CacheResponse, 9, 8});
    }
    {
        std::string out;
        appendEndOfData(out, 9, 55, 3600, 600, 7200);
        cases.push_back({out, PduType::EndOfData, 9, 24});
    }
    {
        std::string out;
        appendCacheReset(out);
        cases.push_back({out, PduType::CacheReset, 0, 8});
    }
    for (const Case& c : cases) {
        ASSERT_EQ(c.bytes.size(), c.length);
        PduHeader header;
        ASSERT_TRUE(peekPduHeader(c.bytes, &header));
        EXPECT_EQ(header.version, kRtrVersion);
        EXPECT_EQ(header.type, static_cast<std::uint8_t>(c.type));
        EXPECT_EQ(header.session, c.session);
        EXPECT_EQ(header.length, c.length);
    }
    PduHeader header;
    EXPECT_FALSE(peekPduHeader("short", &header));
}

TEST(PduEncoding, Ipv4PrefixCarriesFlagsLengthsAddressAsn) {
    std::string out;
    appendPrefixPdu(out, tuple("10.2.0.0/16", 24, 64512), true);
    ASSERT_EQ(out.size(), 20u);
    PduHeader header;
    ASSERT_TRUE(peekPduHeader(out, &header));
    EXPECT_EQ(header.type, static_cast<std::uint8_t>(PduType::Ipv4Prefix));
    EXPECT_EQ(out[8], 1);   // flags: announce
    EXPECT_EQ(out[9], 16);  // prefix length
    EXPECT_EQ(out[10], 24); // max length
    EXPECT_EQ(out[11], 0);  // zero
    EXPECT_EQ(u32At(out, 12), 0x0a020000u);
    EXPECT_EQ(u32At(out, 16), 64512u);

    std::string withdraw;
    appendPrefixPdu(withdraw, tuple("10.2.0.0/16", 24, 64512), false);
    EXPECT_EQ(withdraw[8], 0);  // flags: withdraw
}

TEST(PduEncoding, Ipv6PrefixIs32BytesWithFullAddress) {
    std::string out;
    appendPrefixPdu(out, tuple("2001:db8::/32", 48, 64513), true);
    ASSERT_EQ(out.size(), 32u);
    PduHeader header;
    ASSERT_TRUE(peekPduHeader(out, &header));
    EXPECT_EQ(header.type, static_cast<std::uint8_t>(PduType::Ipv6Prefix));
    EXPECT_EQ(out[9], 32);  // prefix length
    EXPECT_EQ(out[10], 48); // max length
    EXPECT_EQ(u32At(out, 12), 0x20010db8u);
    EXPECT_EQ(u32At(out, 16), 0u);
    EXPECT_EQ(u32At(out, 20), 0u);
    EXPECT_EQ(u32At(out, 24), 0u);
    EXPECT_EQ(u32At(out, 28), 64513u);
}

TEST(PduEncoding, ErrorReportEmbedsOffendingPduAndText) {
    std::string bad;
    appendResetQuery(bad);
    std::string out;
    appendErrorReport(out, RtrError::CorruptData, bad, "nope");
    PduHeader header;
    ASSERT_TRUE(peekPduHeader(out, &header));
    EXPECT_EQ(header.type, static_cast<std::uint8_t>(PduType::ErrorReport));
    EXPECT_EQ(header.session, static_cast<std::uint16_t>(RtrError::CorruptData));
    ASSERT_EQ(header.length, 8u + 4 + bad.size() + 4 + 4);
    EXPECT_EQ(u32At(out, 8), bad.size());
    EXPECT_EQ(out.substr(12, bad.size()), bad);
    EXPECT_EQ(u32At(out, 12 + bad.size()), 4u);
    EXPECT_EQ(out.substr(16 + bad.size()), "nope");
}

// ---------------------------------------------------------------------------
// EpochStore

TEST(EpochStore, FirstEpochIsSnapshotOnly) {
    EpochStore store;
    const auto epoch = store.publish(1, state({tuple("10.0.0.0/8", 8, 1),
                                               tuple("10.1.0.0/16", 24, 2)}));
    EXPECT_EQ(epoch->serial, 0u);
    EXPECT_EQ(epoch->round, 1u);
    EXPECT_EQ(epoch->snapshotPdus.size(), 2 * 20u);
    EXPECT_TRUE(epoch->deltaPdus.empty());
    EXPECT_EQ(store.current(), epoch);
    EXPECT_EQ(store.epochsHeld(), 1u);
    ASSERT_TRUE(deltasSince(store, 0).has_value());
    EXPECT_EQ(*deltasSince(store, 0), "");
}

TEST(EpochStore, DeltaAnnouncesThenWithdraws) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 8, 1), tuple("10.1.0.0/16", 24, 2)}));
    const auto epoch = store.publish(
        2, state({tuple("10.1.0.0/16", 24, 2), tuple("10.2.0.0/16", 16, 3)}));
    EXPECT_EQ(epoch->serial, 1u);
    EXPECT_EQ(epoch->announced, 1u);
    EXPECT_EQ(epoch->withdrawn, 1u);
    const std::vector<ParsedPdu> pdus = parsePdus(epoch->deltaPdus);
    ASSERT_EQ(pdus.size(), 2u);
    EXPECT_EQ(pdus[0].bytes[8], 1);  // announce 10.2.0.0/16 first
    EXPECT_EQ(u32At(pdus[0].bytes, 12), 0x0a020000u);
    EXPECT_EQ(pdus[1].bytes[8], 0);  // then withdraw 10.0.0.0/8
    EXPECT_EQ(u32At(pdus[1].bytes, 12), 0x0a000000u);
    EXPECT_EQ(*deltasSince(store, 0), epoch->deltaPdus);
    EXPECT_EQ(*deltasSince(store, 1), "");
}

TEST(EpochStore, DeltasConcatenateAcrossEpochs) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 8, 1)}));
    const auto e1 = store.publish(2, state({tuple("10.0.0.0/8", 8, 1),
                                            tuple("10.1.0.0/16", 24, 2)}));
    const auto e2 = store.publish(3, state({tuple("10.1.0.0/16", 24, 2)}));
    ASSERT_TRUE(deltasSince(store, 0).has_value());
    EXPECT_EQ(*deltasSince(store, 0), e1->deltaPdus + e2->deltaPdus);
    EXPECT_EQ(*deltasSince(store, 1), e2->deltaPdus);
}

TEST(EpochStore, EvictionAndAheadSerialsForceCacheReset) {
    EpochStore::Options options;
    options.capacity = 2;
    EpochStore store(options);
    for (std::uint64_t round = 1; round <= 4; ++round) {
        store.publish(round, state({tuple("10.0.0.0/8", 8,
                                          static_cast<Asn>(round))}));
    }
    EXPECT_EQ(store.epochsHeld(), 2u);  // serials 2 and 3 survive
    EXPECT_FALSE(deltasSince(store, 0).has_value());  // evicted
    EXPECT_FALSE(deltasSince(store, 1).has_value());  // evicted
    EXPECT_TRUE(deltasSince(store, 2).has_value());
    EXPECT_EQ(*deltasSince(store, 3), "");
    EXPECT_FALSE(deltasSince(store, 4).has_value());  // ahead of the store
    EXPECT_FALSE(deltasSince(store, 0x90000000u).has_value());
}

TEST(EpochStore, SerialsWrapAtTwoToThe32) {
    EpochStore::Options options;
    options.firstSerial = 0xfffffffeu;
    EpochStore store(options);
    store.publish(1, state({tuple("10.0.0.0/8", 8, 1)}));
    const auto e1 = store.publish(2, state({tuple("10.0.0.0/8", 8, 1),
                                            tuple("10.1.0.0/16", 24, 2)}));
    const auto e2 = store.publish(3, state({tuple("10.1.0.0/16", 24, 2)}));
    EXPECT_EQ(e1->serial, 0xffffffffu);
    EXPECT_EQ(e2->serial, 0u);
    EXPECT_EQ(store.current()->serial, 0u);
    // A client at the pre-wrap serial still gets an incremental delta.
    ASSERT_TRUE(deltasSince(store, 0xfffffffeu).has_value());
    EXPECT_EQ(*deltasSince(store, 0xfffffffeu), e1->deltaPdus + e2->deltaPdus);
    EXPECT_EQ(*deltasSince(store, 0xffffffffu), e2->deltaPdus);
    EXPECT_EQ(*deltasSince(store, 0), "");
}

// ---------------------------------------------------------------------------
// RtrCore: bytes-in/bytes-out session semantics

TEST(RtrCore, ResetQueryGetsCacheResponseSnapshotEndOfData) {
    EpochStore store;
    const auto epoch = store.publish(1, state({tuple("10.0.0.0/8", 24, 1),
                                               tuple("2001:db8::/32", 48, 2)}));
    RtrCore core(store);
    std::string in, out;
    appendResetQuery(in);
    EXPECT_TRUE(core.consume(in, out));
    EXPECT_TRUE(in.empty());
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 4u);  // cache response, v4 prefix, v6 prefix, EOD
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::CacheResponse));
    EXPECT_EQ(pdus[0].header.session, store.sessionId());
    EXPECT_EQ(pdus[1].bytes + pdus[2].bytes, epoch->snapshotPdus);
    EXPECT_EQ(pdus[3].header.type, static_cast<std::uint8_t>(PduType::EndOfData));
    EXPECT_EQ(u32At(pdus[3].bytes, 8), epoch->serial);
    EXPECT_EQ(u32At(pdus[3].bytes, 12), 3600u);  // refresh advice
}

TEST(RtrCore, SerialQueryAtCurrentSerialGetsEmptyDelta) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    RtrCore core(store);
    std::string in, out;
    appendSerialQuery(in, store.sessionId(), 0);
    EXPECT_TRUE(core.consume(in, out));
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 2u);  // cache response + EOD, no prefixes
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::CacheResponse));
    EXPECT_EQ(pdus[1].header.type, static_cast<std::uint8_t>(PduType::EndOfData));
}

TEST(RtrCore, SerialQueryBehindCurrentGetsTheDelta) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    const auto e1 = store.publish(2, state({tuple("10.0.0.0/8", 24, 1),
                                            tuple("10.1.0.0/16", 24, 2)}));
    RtrCore core(store);
    std::string in, out;
    appendSerialQuery(in, store.sessionId(), 0);
    EXPECT_TRUE(core.consume(in, out));
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 3u);
    EXPECT_EQ(pdus[1].bytes, e1->deltaPdus);
    EXPECT_EQ(u32At(pdus[2].bytes, 8), e1->serial);
}

TEST(RtrCore, EmptyStoreAnswersNoDataAvailableAndKeepsSession) {
    EpochStore store;
    RtrCore core(store);
    std::string in, out;
    appendSerialQuery(in, store.sessionId(), 0);
    EXPECT_TRUE(core.consume(in, out));  // recoverable: retry later
    std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::ErrorReport));
    EXPECT_EQ(pdus[0].header.session, static_cast<std::uint16_t>(RtrError::NoDataAvailable));

    out.clear();
    appendResetQuery(in);
    EXPECT_TRUE(core.consume(in, out));
    pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.session, static_cast<std::uint16_t>(RtrError::NoDataAvailable));
}

TEST(RtrCore, ForeignSessionIdForcesCacheReset) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    RtrCore core(store);
    std::string in, out;
    appendSerialQuery(in, static_cast<std::uint16_t>(store.sessionId() + 1), 0);
    EXPECT_TRUE(core.consume(in, out));
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::CacheReset));
}

TEST(RtrCore, ReconnectAfterEvictionResetsThenSnapshots) {
    EpochStore::Options options;
    options.capacity = 2;
    EpochStore store(options);
    for (std::uint64_t round = 1; round <= 5; ++round) {
        store.publish(round, state({tuple("10.0.0.0/8", 8,
                                          static_cast<Asn>(round))}));
    }
    RtrCore core(store);
    // The cache held serial 0, which fell off the ring while it was away.
    std::string in, out;
    appendSerialQuery(in, store.sessionId(), 0);
    EXPECT_TRUE(core.consume(in, out));
    std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::CacheReset));
    // RFC 8210 recovery: drop state, come back with a Reset Query.
    out.clear();
    appendResetQuery(in);
    EXPECT_TRUE(core.consume(in, out));
    pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 3u);
    EXPECT_EQ(pdus[1].bytes, store.current()->snapshotPdus);
    EXPECT_EQ(u32At(pdus[2].bytes, 8), store.current()->serial);
}

TEST(RtrCore, VersionMismatchSendsErrorReportAndCloses) {
    EpochStore store;
    RtrCore core(store);
    std::string in, out;
    appendResetQuery(in);
    in[0] = 0;  // RFC 6810 v0 speaker
    EXPECT_FALSE(core.consume(in, out));
    EXPECT_TRUE(in.empty());
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.session,
              static_cast<std::uint16_t>(RtrError::UnsupportedVersion));
}

TEST(RtrCore, ImplausibleLengthIsCorruptData) {
    EpochStore store;
    RtrCore core(store);
    for (const std::uint32_t badLength : {0u, 5u, 1u << 20}) {
        std::string in, out;
        appendResetQuery(in);
        in[4] = static_cast<char>((badLength >> 24) & 0xff);
        in[5] = static_cast<char>((badLength >> 16) & 0xff);
        in[6] = static_cast<char>((badLength >> 8) & 0xff);
        in[7] = static_cast<char>(badLength & 0xff);
        EXPECT_FALSE(core.consume(in, out)) << badLength;
        const std::vector<ParsedPdu> pdus = parsePdus(out);
        ASSERT_EQ(pdus.size(), 1u);
        EXPECT_EQ(pdus[0].header.session,
                  static_cast<std::uint16_t>(RtrError::CorruptData));
    }
}

TEST(RtrCore, WrongSizeSerialQueryIsCorruptData) {
    EpochStore store;
    RtrCore core(store);
    std::string in, out;
    appendSerialQuery(in, store.sessionId(), 0);
    in[7] = 10;       // claim 10 bytes
    in.resize(10);    // and deliver them
    EXPECT_FALSE(core.consume(in, out));
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.session, static_cast<std::uint16_t>(RtrError::CorruptData));
}

TEST(RtrCore, TruncatedPduWaitsForMoreBytes) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    RtrCore core(store);
    std::string full;
    appendSerialQuery(full, store.sessionId(), 0);
    std::string in = full.substr(0, 5);  // header itself is torn
    std::string out;
    EXPECT_TRUE(core.consume(in, out));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(in.size(), 5u);  // untouched, waiting
    in += full.substr(5, 5);   // header complete, body torn
    EXPECT_TRUE(core.consume(in, out));
    EXPECT_TRUE(out.empty());
    in += full.substr(10);     // complete
    EXPECT_TRUE(core.consume(in, out));
    EXPECT_TRUE(in.empty());
    EXPECT_FALSE(parsePdus(out).empty());
}

TEST(RtrCore, ClientErrorReportDropsSessionSilently) {
    EpochStore store;
    RtrCore core(store);
    std::string in, out;
    appendErrorReport(in, RtrError::InternalError, "", "router gave up");
    EXPECT_FALSE(core.consume(in, out));
    EXPECT_TRUE(out.empty());  // §5.10: never answer an Error Report
}

TEST(RtrCore, UnknownPduTypeIsUnsupported) {
    EpochStore store;
    RtrCore core(store);
    std::string in, out;
    appendCacheResponse(in, 1);  // a cache→router PDU arriving at the cache
    EXPECT_FALSE(core.consume(in, out));
    const std::vector<ParsedPdu> pdus = parsePdus(out);
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.session,
              static_cast<std::uint16_t>(RtrError::UnsupportedPduType));
}

TEST(RtrCore, MetersQueriesResponsesAndErrors) {
    obs::Registry registry;
    EpochStore::Options storeOptions;
    storeOptions.registry = &registry;
    EpochStore store(storeOptions);
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    store.publish(2, state({tuple("10.0.0.0/8", 24, 1), tuple("10.1.0.0/16", 24, 2)}));
    RtrCore::Options coreOptions;
    coreOptions.registry = &registry;
    RtrCore core(store, coreOptions);

    std::string in, out;
    appendResetQuery(in);
    appendSerialQuery(in, store.sessionId(), 0);
    EXPECT_TRUE(core.consume(in, out));
    out.clear();
    appendCacheReset(in);  // not a router→cache PDU: protocol error
    EXPECT_FALSE(core.consume(in, out));

    const obs::RegistrySnapshot snap = registry.snapshot();
    const obs::FamilySnapshot* queries = snap.find("rc_rtr_queries_total");
    ASSERT_NE(queries, nullptr);
    double serial = 0, reset = 0;
    for (const obs::SeriesSnapshot& s : queries->series) {
        if (s.labels.find("serial") != std::string::npos) serial = s.value;
        if (s.labels.find("reset") != std::string::npos) reset = s.value;
    }
    EXPECT_EQ(serial, 1.0);
    EXPECT_EQ(reset, 1.0);
    const obs::FamilySnapshot* published = snap.find("rc_rtr_epochs_published_total");
    ASSERT_NE(published, nullptr);
    EXPECT_EQ(published->series[0].value, 2.0);
    const obs::FamilySnapshot* errors = snap.find("rc_rtr_protocol_errors_total");
    ASSERT_NE(errors, nullptr);
    EXPECT_EQ(errors->series[0].value, 1.0);
    const obs::FamilySnapshot* deltaBytes = snap.find("rc_rtr_delta_bytes_total");
    ASSERT_NE(deltaBytes, nullptr);
    EXPECT_EQ(deltaBytes->series[0].value, 20.0);  // one announce PDU
}

TEST(RtrCore, EndOfDataSerialMatchesTheDeltaUnderConcurrentPublish) {
    // One thread publishes one-tuple epochs while another polls with
    // Serial Queries and applies every reply to its VRP set. An End of
    // Data serial read apart from the payload lets a publish in between
    // send deltas up to S+1 under serial S; the next query from S then
    // announces a tuple the router already holds (RFC 8210 §5.6).
    constexpr int kEpochs = 3000;
    EpochStore::Options options;
    options.capacity = kEpochs + 1;  // no Cache Reset: every poll is a delta
    EpochStore store(options);
    const auto epochState = [](int k) {
        const auto addr = 0x0a000000u + (static_cast<std::uint32_t>(k) << 8);
        return state({RoaTuple{IpPrefix::v4(addr, 24), 24, static_cast<Asn>(k)}});
    };
    store.publish(0, epochState(0));

    // A VRP is its prefix PDU with the announce flag cleared.
    const auto vrpKey = [](const std::string& pdu) {
        std::string key = pdu;
        key[8] = 0;
        return key;
    };
    std::set<std::string> vrps;
    for (const ParsedPdu& pdu : parsePdus(store.current()->snapshotPdus)) {
        vrps.insert(vrpKey(pdu.bytes));
    }
    std::uint32_t serial = store.current()->serial;
    std::size_t duplicateAnnounces = 0;
    std::size_t absentWithdraws = 0;
    std::size_t polls = 0;
    RtrCore core(store);
    const auto poll = [&] {
        std::string in, out;
        appendSerialQuery(in, store.sessionId(), serial);
        ASSERT_TRUE(core.consume(in, out));
        const std::vector<ParsedPdu> pdus = parsePdus(out);
        ASSERT_GE(pdus.size(), 2u);
        ASSERT_EQ(pdus.back().header.type, static_cast<std::uint8_t>(PduType::EndOfData));
        for (std::size_t i = 1; i + 1 < pdus.size(); ++i) {
            const std::string key = vrpKey(pdus[i].bytes);
            if (pdus[i].bytes[8] == 1) {
                if (!vrps.insert(key).second) ++duplicateAnnounces;
            } else if (vrps.erase(key) == 0) {
                ++absentWithdraws;
            }
        }
        serial = u32At(pdus.back().bytes, 8);
        ++polls;
    };

    std::atomic<bool> done{false};
    std::thread publisher([&] {
        for (int k = 1; k <= kEpochs; ++k) {
            store.publish(static_cast<std::uint64_t>(k), epochState(k));
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        done.store(true);
    });
    while (!done.load()) poll();
    publisher.join();
    poll();

    EXPECT_EQ(duplicateAnnounces, 0u) << "over " << polls << " polls";
    EXPECT_EQ(absentWithdraws, 0u) << "over " << polls << " polls";
    EXPECT_EQ(serial, store.current()->serial);
    std::set<std::string> want;
    for (const ParsedPdu& pdu : parsePdus(store.current()->snapshotPdus)) {
        want.insert(vrpKey(pdu.bytes));
    }
    EXPECT_EQ(vrps, want);
}

// ---------------------------------------------------------------------------
// RtrServer over real sockets

/// Minimal blocking RTR client: connect, write PDUs, read exact counts.
class RtrClient {
public:
    explicit RtrClient(std::uint16_t port) {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        timeval timeout{};
        timeout.tv_sec = 10;
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        connected_ =
            fd_ >= 0 && ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
    }
    ~RtrClient() {
        if (fd_ >= 0) ::close(fd_);
    }
    bool connected() const { return connected_; }

    bool sendAll(const std::string& data) {
        std::size_t sent = 0;
        while (sent < data.size()) {
            const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, 0);
            if (n <= 0) return false;
            sent += static_cast<std::size_t>(n);
        }
        return true;
    }

    /// Reads whole PDUs until End of Data / Cache Reset / Error Report
    /// (or transport error). Returns the parsed sequence.
    std::vector<ParsedPdu> readResponse() {
        std::vector<ParsedPdu> pdus;
        std::string buf;
        while (true) {
            PduHeader header;
            while (!peekPduHeader(buf, &header) || buf.size() < header.length) {
                char chunk[4096];
                const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
                if (n <= 0) return pdus;
                buf.append(chunk, static_cast<std::size_t>(n));
            }
            ParsedPdu pdu;
            pdu.header = header;
            pdu.bytes = buf.substr(0, header.length);
            buf.erase(0, header.length);
            pdus.push_back(std::move(pdu));
            const auto type = static_cast<PduType>(header.type);
            if (type == PduType::EndOfData || type == PduType::CacheReset ||
                type == PduType::ErrorReport || type == PduType::SerialNotify) {
                return pdus;
            }
        }
    }

private:
    int fd_ = -1;
    bool connected_ = false;
};

TEST(RtrServer, ServesSnapshotDeltaAndNotifyOverTcp) {
    EpochStore store;
    const auto e0 = store.publish(1, state({tuple("10.0.0.0/8", 24, 1),
                                            tuple("2001:db8::/32", 48, 2)}));
    RtrServer server(store);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;
    ASSERT_NE(server.port(), 0);

    RtrClient client(server.port());
    ASSERT_TRUE(client.connected());

    // Cold cache: Reset Query → Cache Response + full snapshot + EOD.
    std::string query;
    appendResetQuery(query);
    ASSERT_TRUE(client.sendAll(query));
    std::vector<ParsedPdu> pdus = client.readResponse();
    ASSERT_EQ(pdus.size(), 4u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::CacheResponse));
    EXPECT_EQ(pdus[1].bytes + pdus[2].bytes, e0->snapshotPdus);
    EXPECT_EQ(pdus[3].header.type, static_cast<std::uint8_t>(PduType::EndOfData));
    EXPECT_EQ(u32At(pdus[3].bytes, 8), e0->serial);

    // A new round publishes; notify() pokes every connected cache.
    const auto e1 = store.publish(2, state({tuple("10.0.0.0/8", 24, 1),
                                            tuple("10.9.0.0/16", 24, 9),
                                            tuple("2001:db8::/32", 48, 2)}));
    server.notify();
    pdus = client.readResponse();
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::SerialNotify));
    EXPECT_EQ(u32At(pdus[0].bytes, 8), e1->serial);

    // The poked cache comes back with a Serial Query and gets the delta.
    query.clear();
    appendSerialQuery(query, store.sessionId(), e0->serial);
    ASSERT_TRUE(client.sendAll(query));
    pdus = client.readResponse();
    ASSERT_EQ(pdus.size(), 3u);
    EXPECT_EQ(pdus[1].bytes, e1->deltaPdus);
    EXPECT_EQ(u32At(pdus[2].bytes, 8), e1->serial);

    EXPECT_EQ(server.sessionsOpen(), 1u);
    server.stop();
    EXPECT_FALSE(server.running());
}

TEST(RtrServer, NotifyRightAfterAResponseIsNotHeldBack) {
    // Under Nagle the server would hold a Serial Notify sent right after a
    // response until the cache's delayed ACK of that response (~40 ms on
    // Linux) arrived; sessions are TCP_NODELAY so it goes out at once.
    EpochStore store;
    std::vector<RoaTuple> tuples{tuple("10.0.0.0/8", 24, 1)};
    store.publish(1, state(tuples));
    RtrServer server(store);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;
    RtrClient client(server.port());
    ASSERT_TRUE(client.connected());
    std::string query;
    appendResetQuery(query);
    ASSERT_TRUE(client.sendAll(query));
    ASSERT_EQ(client.readResponse().size(), 3u);

    std::vector<double> notifyMs;
    for (int round = 2; round < 18; ++round) {
        const std::uint32_t from = store.current()->serial;
        const std::string prefix = "10." + std::to_string(round) + ".0.0/16";
        tuples.push_back(tuple(prefix.c_str(), 24, static_cast<Asn>(round)));
        const auto epoch = store.publish(round, state(tuples));
        const auto start = std::chrono::steady_clock::now();
        server.notify();
        std::vector<ParsedPdu> pdus = client.readResponse();
        notifyMs.push_back(
            std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
                .count());
        ASSERT_EQ(pdus.size(), 1u);
        EXPECT_EQ(u32At(pdus[0].bytes, 8), epoch->serial);
        query.clear();
        appendSerialQuery(query, store.sessionId(), from);
        ASSERT_TRUE(client.sendAll(query));
        ASSERT_EQ(client.readResponse().size(), 3u);
    }
    std::sort(notifyMs.begin(), notifyMs.end());
    EXPECT_LT(notifyMs[notifyMs.size() / 2], 20.0) << "median Serial Notify delivery, ms";
    server.stop();
}

TEST(RtrServer, ProtocolErrorClosesTheConnection) {
    EpochStore store;
    store.publish(1, state({tuple("10.0.0.0/8", 24, 1)}));
    RtrServer server(store);
    std::string error;
    ASSERT_TRUE(server.start("127.0.0.1:0", &error)) << error;

    RtrClient client(server.port());
    ASSERT_TRUE(client.connected());
    std::string bad;
    appendResetQuery(bad);
    bad[0] = 0;  // unsupported version
    ASSERT_TRUE(client.sendAll(bad));
    std::vector<ParsedPdu> pdus = client.readResponse();
    ASSERT_EQ(pdus.size(), 1u);
    EXPECT_EQ(pdus[0].header.type, static_cast<std::uint8_t>(PduType::ErrorReport));
    EXPECT_EQ(pdus[0].header.session,
              static_cast<std::uint16_t>(RtrError::UnsupportedVersion));
    // The server hangs up after draining the Error Report.
    EXPECT_TRUE(client.readResponse().empty());
    server.stop();
}

}  // namespace
}  // namespace rpkic::serve
