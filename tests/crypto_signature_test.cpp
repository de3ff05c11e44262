// WOTS, Merkle-tree, and XMSS-style signature behaviour: correctness,
// tamper rejection, key exhaustion, serialization round-trips, and known
// answers for keys and signatures.
#include <gtest/gtest.h>

#include "crypto/merkle.hpp"
#include "crypto/wots.hpp"
#include "crypto/xmss.hpp"
#include "util/errors.hpp"

namespace rpkic {
namespace {

TEST(Wots, MessageDigitsChecksum) {
    const Digest msg = sha256("checksum test");
    const auto digits = wots::messageDigits(msg);
    // The message digits must be the hex nibbles of the digest.
    for (int i = 0; i < 32; ++i) {
        EXPECT_EQ(digits[2 * i], msg.bytes[i] >> 4);
        EXPECT_EQ(digits[2 * i + 1], msg.bytes[i] & 0x0f);
    }
    // Checksum digits must encode sum(15 - digit).
    std::uint32_t checksum = 0;
    for (int i = 0; i < wots::kMsgChains; ++i) checksum += 15u - digits[i];
    std::uint32_t decoded = 0;
    for (int i = 0; i < wots::kChecksumChains; ++i) decoded = (decoded << 4) | digits[wots::kMsgChains + i];
    EXPECT_EQ(decoded, checksum);
}

TEST(Wots, SignVerifyRoundTrip) {
    const Digest secretSeed = sha256("secret");
    const Digest publicSeed = sha256("public");
    const Digest msg = sha256("message");
    const Digest pk = wots::derivePublicKey(secretSeed, publicSeed, 7);
    const auto sig = wots::sign(secretSeed, publicSeed, 7, msg);
    EXPECT_EQ(wots::publicKeyFromSignature(publicSeed, 7, msg, sig), pk);
}

TEST(Wots, WrongMessageFailsVerification) {
    const Digest secretSeed = sha256("secret");
    const Digest publicSeed = sha256("public");
    const Digest pk = wots::derivePublicKey(secretSeed, publicSeed, 0);
    const auto sig = wots::sign(secretSeed, publicSeed, 0, sha256("message A"));
    EXPECT_NE(wots::publicKeyFromSignature(publicSeed, 0, sha256("message B"), sig), pk);
}

TEST(Wots, LeafIndexDomainSeparation) {
    const Digest secretSeed = sha256("secret");
    const Digest publicSeed = sha256("public");
    EXPECT_NE(wots::derivePublicKey(secretSeed, publicSeed, 0),
              wots::derivePublicKey(secretSeed, publicSeed, 1));
}

TEST(Merkle, SingleLeaf) {
    const Digest leaf = sha256("only");
    MerkleTree t({leaf});
    EXPECT_EQ(t.root(), leaf);
    EXPECT_EQ(t.height(), 0);
    EXPECT_TRUE(t.path(0).empty());
}

TEST(Merkle, PathsVerifyForAllLeaves) {
    std::vector<Digest> leaves;
    for (int i = 0; i < 16; ++i) leaves.push_back(sha256("leaf " + std::to_string(i)));
    MerkleTree t(leaves);
    for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(merkleRootFromPath(leaves[i], i, t.path(i)), t.root()) << "leaf " << i;
    }
}

TEST(Merkle, WrongIndexFailsPathVerification) {
    std::vector<Digest> leaves;
    for (int i = 0; i < 8; ++i) leaves.push_back(sha256("leaf " + std::to_string(i)));
    MerkleTree t(leaves);
    EXPECT_NE(merkleRootFromPath(leaves[3], 2, t.path(3)), t.root());
}

TEST(Merkle, RejectsNonPowerOfTwo) {
    std::vector<Digest> leaves(3, sha256("x"));
    EXPECT_THROW(MerkleTree{leaves}, UsageError);
    EXPECT_THROW(MerkleTree{std::vector<Digest>{}}, UsageError);
}

TEST(Xmss, SignVerifyManyMessages) {
    Signer signer = Signer::generate(42, 4);
    const PublicKey pub = signer.publicKey();
    for (int i = 0; i < 16; ++i) {
        const std::string msg = "manifest update " + std::to_string(i);
        const Bytes sig = signer.sign(msg);
        EXPECT_TRUE(verify(pub, msg, ByteView(sig.data(), sig.size()))) << i;
        EXPECT_FALSE(verify(pub, msg + "x", ByteView(sig.data(), sig.size()))) << i;
    }
}

TEST(Xmss, KeyExhaustionThrows) {
    Signer signer = Signer::generate(1, 1);  // 2 signatures only
    (void)signer.sign("one");
    (void)signer.sign("two");
    EXPECT_EQ(signer.signaturesRemaining(), 0u);
    EXPECT_THROW((void)signer.sign("three"), KeyExhaustedError);
}

TEST(Xmss, SignaturesUseDistinctLeaves) {
    Signer signer = Signer::generate(7, 3);
    const Bytes s1 = signer.sign("m");
    const Bytes s2 = signer.sign("m");
    const auto d1 = SignatureData::fromBytes(ByteView(s1.data(), s1.size()));
    const auto d2 = SignatureData::fromBytes(ByteView(s2.data(), s2.size()));
    EXPECT_EQ(d1.leafIndex, 0u);
    EXPECT_EQ(d2.leafIndex, 1u);
}

TEST(Xmss, DifferentSeedsDifferentKeys) {
    EXPECT_NE(Signer::generate(1, 2).publicKey(), Signer::generate(2, 2).publicKey());
}

TEST(Xmss, DeterministicFromSeed) {
    EXPECT_EQ(Signer::generate(99, 3).publicKey(), Signer::generate(99, 3).publicKey());
}

TEST(Xmss, PublicKeySerializationRoundTrip) {
    const PublicKey pub = Signer::generate(5, 2).publicKey();
    const Bytes b = pub.toBytes();
    EXPECT_EQ(PublicKey::fromBytes(ByteView(b.data(), b.size())), pub);
}

TEST(Xmss, RejectsTamperedSignatureBytes) {
    Signer signer = Signer::generate(3, 2);
    const std::string msg = "tamper target";
    Bytes sig = signer.sign(msg);
    const PublicKey pub = signer.publicKey();
    ASSERT_TRUE(verify(pub, msg, ByteView(sig.data(), sig.size())));

    // Flip one bit anywhere: must always fail.
    for (std::size_t i = 0; i < sig.size(); i += 97) {
        Bytes mutated = sig;
        mutated[i] ^= 0x01;
        EXPECT_FALSE(verify(pub, msg, ByteView(mutated.data(), mutated.size()))) << "byte " << i;
    }
    // Truncation must fail, not crash.
    Bytes truncated(sig.begin(), sig.begin() + static_cast<long>(sig.size() / 2));
    EXPECT_FALSE(verify(pub, msg, ByteView(truncated.data(), truncated.size())));
    EXPECT_FALSE(verify(pub, msg, ByteView{}));
}

TEST(Xmss, CrossKeyVerificationFails) {
    Signer a = Signer::generate(10, 2);
    Signer b = Signer::generate(11, 2);
    const Bytes sig = a.sign("cross");
    EXPECT_FALSE(verify(b.publicKey(), "cross", ByteView(sig.data(), sig.size())));
}

TEST(Xmss, MalformedPublicKeyRejected) {
    Bytes tooShort(10, 0);
    EXPECT_THROW(PublicKey::fromBytes(ByteView(tooShort.data(), tooShort.size())), ParseError);
    Bytes badHeight = Signer::generate(1, 2).publicKey().toBytes();
    badHeight[64] = 0;
    EXPECT_THROW(PublicKey::fromBytes(ByteView(badHeight.data(), badHeight.size())), ParseError);
}

// ---------------------------------------------------------------------------
// Known answers. Keys, signatures and recomputed public keys are pinned as
// hex, so any change to how the chains are hashed shows up here, not only
// in the world-level goldens.

Digest filled(std::uint8_t byte) {
    Digest d;
    d.bytes.fill(byte);
    return d;
}

std::string hexOfDigest(const Bytes& b) {
    return sha256(ByteView(b.data(), b.size())).hex();
}

TEST(SignatureKat, GeneratedPublicKeys) {
    const Bytes a = Signer::generate(1, 4).publicKey().toBytes();
    const Bytes b = Signer::generate(20140817, 4).publicKey().toBytes();
    EXPECT_EQ(toHex(ByteView(a.data(), a.size())),
              "b84ccf73d71e863294f851536e613a5ae4f4869831b0f6c84f1bbfa62b21bfbb"
              "7d383660345c4475d56656335461be5f03e51ca0d3694840a73aa73d657be2390400");
    EXPECT_EQ(toHex(ByteView(b.data(), b.size())),
              "dc40d782ce9f52cb49e25f66af731b9b0b39f9484952e8a9063877854f93918b"
              "05e1307a6713ef1020baf6ecb2657cfab00974c4681fb320d8fdfea3554acae10400");
}

TEST(SignatureKat, WotsPublicKeys) {
    const Digest secretSeed = sha256("kat secret seed");
    const Digest publicSeed = sha256("kat public seed");
    EXPECT_EQ(wots::derivePublicKey(secretSeed, publicSeed, 0).hex(),
              "33172f715233eacf09d5c2a5b8aa24a5ef45947d7c26ea2c62ae1ca21ab02121");
    // Every byte of the leaf index lands in the chain block.
    EXPECT_EQ(wots::derivePublicKey(secretSeed, publicSeed, 0x01020304).hex(),
              "73bed672df7ac9d22cbb30a0662d2b79b2f4decd9a29a7137e71433dd26dac82");
}

TEST(SignatureKat, SignaturesOfLeavesZeroAndOne) {
    Signer signer = Signer::generate(3, 4);
    const Bytes first = signer.sign("kat message 0");
    const Bytes second = signer.sign("kat message 1");
    EXPECT_EQ(hexOfDigest(first),
              "d100da6b8b9df7d62b09db858f3753bb5fd5c82bc955da9627474ef7b495b667");
    EXPECT_EQ(hexOfDigest(second),
              "321233f641df627104d5799c4517dc03229bead64e90bd9449f0f0c4b69a7a3d");
}

TEST(SignatureKat, PublicKeyFromSignatureAtExtremeDigits) {
    // Verifying walks a chain 15 - digit steps and signing walks it digit
    // steps, so digits 0 and 15 give both zero-step and full-length chains
    // on either side. 0x00 bytes give message digits 0 and checksum digits
    // 3, 12, 0; 0xFF bytes give message digits 15 and checksum digits
    // 0, 0, 0; 0x0F alternates 0 and 15 with checksum digits 1, 14, 0.
    const Digest secretSeed = sha256("kat secret seed");
    const Digest publicSeed = sha256("kat public seed");
    wots::Signature arbitrary;
    for (int c = 0; c < wots::kChains; ++c) arbitrary[c] = sha256("kat chain " + std::to_string(c));
    const Digest pk = wots::derivePublicKey(secretSeed, publicSeed, 9);
    const auto heads = wots::deriveSecretChains(secretSeed, 9);
    const std::pair<std::uint8_t, const char*> cases[] = {
        {0x00, "32e430947d8fa529aef16f2e56b3d33bad844051c87635e77c0503d616214947"},
        {0xFF, "85cc2c058a2a6ff36e9dddebd8c20ba4600fe6488c6abb17363ba901b66a9474"},
        {0x0F, "d2465f902f860aa1c9f4fd38586119e12507419dfbdd29a6b2727bdc7ab6926f"},
    };
    for (const auto& [byte, expected] : cases) {
        SCOPED_TRACE(static_cast<int>(byte));
        const Digest msg = filled(byte);
        const auto digits = wots::messageDigits(msg);
        EXPECT_EQ(wots::publicKeyFromSignature(publicSeed, 9, msg, arbitrary).hex(), expected);
        const wots::Signature sig = wots::sign(secretSeed, publicSeed, 9, msg);
        EXPECT_EQ(wots::publicKeyFromSignature(publicSeed, 9, msg, sig), pk);
        // Signing walks a digit-0 chain zero steps: the secret head itself.
        for (int c = 0; c < wots::kChains; ++c) {
            if (digits[c] == 0) {
                EXPECT_EQ(sig[c], heads[c]) << c;
            }
        }
    }
}

}  // namespace
}  // namespace rpkic
