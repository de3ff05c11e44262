// SHA-256 correctness against FIPS 180-4 / NIST CAVP vectors, plus
// streaming-interface behaviour.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

#include "util/bytes.hpp"
#include "util/errors.hpp"

namespace rpkic {
namespace {

TEST(Sha256, EmptyInput) {
    EXPECT_EQ(sha256("").hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(sha256("abc").hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").hex(),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) h.update(chunk);
    EXPECT_EQ(h.finish().hex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
    // 'x' * n around the padding boundaries: up to 55 bytes the length fits
    // in the last message block, from 56 it spills into a second padding
    // block. Reference digests from Python's hashlib. Each message is also
    // streamed, split at every offset.
    const std::pair<std::size_t, const char*> vectors[] = {
        {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
        {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
        {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
        {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
        {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
        {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
        {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
    };
    for (const auto& [n, hex] : vectors) {
        const std::string msg(n, 'x');
        EXPECT_EQ(sha256(msg).hex(), hex) << "n=" << n;
        for (std::size_t split = 0; split <= n; ++split) {
            Sha256 h;
            h.update(std::string_view(msg).substr(0, split));
            h.update(std::string_view(msg).substr(split));
            EXPECT_EQ(h.finish().hex(), hex) << "n=" << n << " split at " << split;
        }
    }
}

TEST(Sha256, StreamingMatchesOneShot) {
    const std::string msg = "The Resource Public Key Infrastructure (RPKI) is a new "
                            "infrastructure that prevents some of the most devastating "
                            "attacks on interdomain routing.";
    for (std::size_t split = 0; split <= msg.size(); split += 7) {
        Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.finish(), sha256(msg)) << "split at " << split;
    }
}

TEST(Sha256, ResetReusesObject) {
    Sha256 h;
    h.update("abc");
    EXPECT_EQ(h.finish().hex(),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    h.reset();
    h.update("");
    EXPECT_EQ(h.finish().hex(),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, PairHashMatchesConcatenation) {
    const Digest a = sha256("left");
    const Digest b = sha256("right");
    Bytes concat(a.bytes.begin(), a.bytes.end());
    concat.insert(concat.end(), b.bytes.begin(), b.bytes.end());
    EXPECT_EQ(sha256Pair(a, b), sha256(ByteView(concat.data(), concat.size())));
    EXPECT_NE(sha256Pair(a, b), sha256Pair(b, a));
}

TEST(Digest, HexRoundTrip) {
    const Digest d = sha256("round trip");
    EXPECT_EQ(Digest::fromHex(d.hex()), d);
}

TEST(Digest, ZeroDetection) {
    Digest d;
    EXPECT_TRUE(d.isZero());
    d.bytes[31] = 1;
    EXPECT_FALSE(d.isZero());
}

TEST(Digest, Ordering) {
    Digest a, b;
    a.bytes[0] = 1;
    b.bytes[0] = 2;
    EXPECT_LT(a, b);
    EXPECT_EQ(a, a);
}

TEST(HexCodec, RoundTrip) {
    const Bytes data = {0x00, 0x01, 0x7f, 0x80, 0xff};
    EXPECT_EQ(toHex(ByteView(data.data(), data.size())), "00017f80ff");
    EXPECT_EQ(fromHex("00017f80ff"), data);
}

TEST(HexCodec, RejectsMalformed) {
    EXPECT_THROW(fromHex("abc"), ParseError);
    EXPECT_THROW(fromHex("zz"), ParseError);
}

}  // namespace
}  // namespace rpkic
