// Robustness: decoders must never crash or accept silently-wrong data.
// Random truncation, bit-flips, and byte garbage against every object type
// must either round-trip (if the mutation missed the object) or raise
// ParseError — these are bytes fetched from untrusted repositories.
#include <gtest/gtest.h>

#include <algorithm>

#include "consent/authority.hpp"
#include "crypto/sha256.hpp"
#include "crypto/xmss.hpp"
#include "fuzz/seed_corpus.hpp"
#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rpki/objects.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace rpkic {
namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

/// The shared checked-in TLV seed corpus (fuzz/corpus/tlv) — the same
/// files the fuzz/ drivers replay. RC_CORPUS_DIR comes from CMake.
const std::vector<Bytes>& sampleObjects() {
    static const std::vector<Bytes> corpus = fuzz::loadCorpusDir(RC_CORPUS_DIR "/tlv");
    return corpus;
}

/// The on-disk corpus must stay in sync with the canonical seed builders:
/// run build/fuzz/gen_corpus after wire-format changes.
void expectCorpusMatches(const std::vector<Bytes>& corpus, const std::vector<Bytes>& generated,
                         const char* dir) {
    ASSERT_FALSE(corpus.empty());
    EXPECT_EQ(corpus.size(), generated.size());
    for (const Bytes& seed : generated) {
        EXPECT_NE(std::find(corpus.begin(), corpus.end(), seed), corpus.end())
            << "seed missing from fuzz/corpus/" << dir << " — re-run gen_corpus";
    }
}

TEST(SharedCorpus, CheckedInTlvSeedsMatchGenerators) {
    // The object samples plus one attack-shaped seed per adversary pack
    // (fuzz/gen_corpus writes those as pack_<name>.bin).
    std::vector<Bytes> generated = fuzz::sampleObjects();
    for (auto& [name, bytes] : fuzz::samplePackTlvSeeds()) {
        generated.push_back(std::move(bytes));
    }
    expectCorpusMatches(sampleObjects(), generated, "tlv");
}

TEST(SharedCorpus, CheckedInChainProgramsMatchGenerators) {
    // Opcode samples plus one chain-shape program per adversary pack.
    std::vector<Bytes> generated = fuzz::sampleChainPrograms();
    for (auto& [name, bytes] : fuzz::samplePackChainPrograms()) {
        generated.push_back(std::move(bytes));
    }
    expectCorpusMatches(fuzz::loadCorpusDir(RC_CORPUS_DIR "/manifest_chain"), generated,
                        "manifest_chain");
}

TEST(SharedCorpus, CheckedInWalImagesMatchGenerators) {
    // The durable store's WAL and checkpoint images: these seeds hold real
    // commit frames, so they pin the on-disk frame format byte for byte.
    expectCorpusMatches(fuzz::loadCorpusDir(RC_CORPUS_DIR "/wal"), fuzz::sampleWalImages(),
                        "wal");
}

TEST(SharedCorpus, CheckedInRtrInputsMatchGenerators) {
    // Router queries against fuzz_rtr's two-epoch store.
    expectCorpusMatches(fuzz::loadCorpusDir(RC_CORPUS_DIR "/rtr"), fuzz::sampleRtrInputs(),
                        "rtr");
}

/// Decodes by dispatching on the type byte; returns true on success.
bool tryDecode(const Bytes& wire) {
    const ByteView view(wire.data(), wire.size());
    switch (objectTypeOf(view)) {
        case ObjectType::ResourceCert: (void)ResourceCert::decode(view); return true;
        case ObjectType::Roa: (void)Roa::decode(view); return true;
        case ObjectType::Manifest: (void)Manifest::decode(view); return true;
        case ObjectType::Crl: (void)Crl::decode(view); return true;
        case ObjectType::Dead: (void)DeadObject::decode(view); return true;
        case ObjectType::Roll: (void)RollObject::decode(view); return true;
        case ObjectType::Hints: (void)HintsFile::decode(view); return true;
    }
    return false;
}

class FuzzDecode : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzDecode, MutationsNeverCrashDecoders) {
    Rng rng(GetParam());
    const std::vector<Bytes> samples = sampleObjects();
    int parseErrors = 0;
    int accepted = 0;
    for (int iter = 0; iter < 400; ++iter) {
        Bytes wire = samples[static_cast<std::size_t>(rng.nextBelow(samples.size()))];
        const int mutations = static_cast<int>(rng.nextInRange(1, 6));
        for (int mutationIndex = 0; mutationIndex < mutations; ++mutationIndex) {
            switch (rng.nextBelow(3)) {
                case 0:  // bit flip
                    if (!wire.empty()) {
                        wire[static_cast<std::size_t>(rng.nextBelow(wire.size()))] ^=
                            static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                    }
                    break;
                case 1:  // truncate
                    wire.resize(static_cast<std::size_t>(rng.nextBelow(wire.size() + 1)));
                    break;
                case 2:  // append garbage
                    for (int j = 0; j < 4; ++j) {
                        wire.push_back(static_cast<std::uint8_t>(rng.nextU64()));
                    }
                    break;
            }
        }
        try {
            if (tryDecode(wire)) ++accepted;
        } catch (const ParseError&) {
            ++parseErrors;  // the only acceptable failure mode
        }
    }
    // Most mutations must be rejected (bit flips inside hash/signature
    // payload bytes can legitimately decode).
    EXPECT_GT(parseErrors, 100) << "mutations were mostly accepted?";
    (void)accepted;
}

TEST_P(FuzzDecode, PureGarbageNeverCrashes) {
    Rng rng(GetParam() ^ 0xdead);
    for (int iter = 0; iter < 300; ++iter) {
        Bytes junk(static_cast<std::size_t>(rng.nextBelow(300)));
        for (auto& b : junk) b = static_cast<std::uint8_t>(rng.nextU64());
        try {
            (void)tryDecode(junk);
        } catch (const ParseError&) {
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDecode, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Builds a realistic relying-party cache blob: a small consent-mode
/// hierarchy synced twice (so manifest history, hints and alarms are all
/// populated), then serialized.
Bytes realisticStateBlob() {
    Repository repo;
    consent::AuthorityDirectory dir(
        77, consent::AuthorityOptions{.ts = 4, .signerHeight = 6, .manifestLifetime = 1000});
    SimClock clock;
    auto& root = dir.createTrustAnchor(
        "root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}), repo, clock.now());
    auto& org = dir.createChild(root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                                repo, clock.now());
    org.issueRoa("r1", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    rp::RelyingParty alice("alice", {root.cert()}, rp::RpOptions{.ts = 4, .tg = 8});
    alice.sync(repo.snapshot(), clock.now());
    clock.advance(1);
    org.issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, repo, clock.now());
    root.unsafeUnilateralRevokeChild("org", repo, clock.now());  // populate alarms
    alice.sync(repo.snapshot(), clock.now());
    return alice.serializeState();
}

class FuzzStateBlob : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzStateBlob, MutatedCacheLoadsFullyOrThrows) {
    // The cache file is the one input a relying party reads that chaos can
    // reach at rest (disk corruption, torn writes). Mutations must either
    // raise ParseError or deserialize into a fully-functional relying
    // party — never crash, never a half-loaded state that later faults.
    const Bytes blob = realisticStateBlob();
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
    int parseErrors = 0;
    int accepted = 0;
    for (int iter = 0; iter < 150; ++iter) {
        Bytes wire = blob;
        const int mutations = static_cast<int>(rng.nextInRange(1, 6));
        for (int m = 0; m < mutations; ++m) {
            switch (rng.nextBelow(3)) {
                case 0:  // bit flip
                    wire[static_cast<std::size_t>(rng.nextBelow(wire.size()))] ^=
                        static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                    break;
                case 1:  // truncate (torn write)
                    wire.resize(static_cast<std::size_t>(rng.nextBelow(wire.size() + 1)));
                    break;
                case 2:  // append garbage
                    for (int j = 0; j < 8; ++j) {
                        wire.push_back(static_cast<std::uint8_t>(rng.nextU64()));
                    }
                    break;
            }
        }
        if (wire == blob) continue;
        try {
            rp::RelyingParty restored =
                rp::RelyingParty::deserializeState(ByteView(wire.data(), wire.size()));
            // Whatever decoded must be a *complete* state: exercising it
            // must not throw, and it must re-serialize canonically.
            (void)restored.validRoas();
            (void)restored.roaState();
            (void)restored.exportManifestClaims();
            const Bytes again = restored.serializeState();
            EXPECT_EQ(again, restored.serializeState());
            ++accepted;
        } catch (const ParseError&) {
            ++parseErrors;  // the only acceptable failure mode
        }
    }
    EXPECT_GT(parseErrors, 50) << "cache mutations were mostly accepted?";
    (void)accepted;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzStateBlob, ::testing::Values(1, 2, 3, 4));

TEST(FuzzDelta, MutatedDeltaAppliesFullyOrThrows) {
    // A real multi-record delta (RC records, point caches, alarms, hash
    // window): every truncation and 500 seeded byte flips must either
    // apply cleanly or throw ParseError, leaving the state untouched.
    Repository repo;
    consent::AuthorityDirectory dir(
        77, consent::AuthorityOptions{.ts = 4, .signerHeight = 6, .manifestLifetime = 1000});
    SimClock clock;
    auto& root = dir.createTrustAnchor(
        "root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}), repo, clock.now());
    auto& org = dir.createChild(root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                                repo, clock.now());
    org.issueRoa("r1", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    rp::RelyingParty alice("alice", {root.cert()}, rp::RpOptions{.ts = 4, .tg = 8});
    alice.sync(repo.snapshot(), clock.now());
    const Bytes base = alice.serializeState();
    alice.clearDelta();
    clock.advance(1);
    org.issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, repo, clock.now());
    root.unsafeUnilateralRevokeChild("org", repo, clock.now());  // raises alarms
    alice.sync(repo.snapshot(), clock.now());
    const Bytes delta = alice.serializeDelta();
    const Bytes live = alice.serializeState();
    ASSERT_NE(live, base);

    const auto tryApply = [&](const Bytes& wire) {
        rp::RelyingParty restored =
            rp::RelyingParty::deserializeState(ByteView(base.data(), base.size()));
        try {
            restored.applyDelta(ByteView(wire.data(), wire.size()));
        } catch (const ParseError&) {
            EXPECT_EQ(restored.serializeState(), base) << "a refused delta changed the state";
            return false;
        }
        (void)restored.validRoas();
        (void)restored.exportManifestClaims();
        EXPECT_EQ(restored.serializeState(), restored.serializeState());
        return true;
    };
    ASSERT_TRUE(tryApply(delta));
    {
        rp::RelyingParty restored =
            rp::RelyingParty::deserializeState(ByteView(base.data(), base.size()));
        restored.applyDelta(ByteView(delta.data(), delta.size()));
        EXPECT_EQ(restored.serializeState(), live);
        // Applied twice, the delta no longer extends the state.
        EXPECT_THROW(restored.applyDelta(ByteView(delta.data(), delta.size())), ParseError);
    }
    for (std::size_t cut = 0; cut < delta.size(); ++cut) {
        EXPECT_FALSE(
            tryApply(Bytes(delta.begin(), delta.begin() + static_cast<std::ptrdiff_t>(cut))))
            << "a delta cut at " << cut << " applied";
    }
    // Most of a delta is object bytes and strings that decode either way
    // (on disk the WAL frame's digest guards them), so both outcomes occur.
    Rng rng(20140817);
    int refused = 0;
    for (int iter = 0; iter < 500; ++iter) {
        Bytes wire = delta;
        wire[static_cast<std::size_t>(rng.nextBelow(wire.size()))] ^=
            static_cast<std::uint8_t>(1u + rng.nextBelow(255));
        if (!tryApply(wire)) ++refused;
    }
    EXPECT_GT(refused, 0);
    EXPECT_LT(refused, 500);
}

TEST(PersistedBytes, StateImageAndCheckpointArePinned) {
    // The relying party's cache image and the WAL the durable store folds
    // it into, byte for byte. Restarted relying parties and rpkic-audit
    // --cache read these files back; a moved digest is a format change and
    // belongs in docs/DURABILITY.md.
    const Bytes state = realisticStateBlob();
    EXPECT_EQ(sha256(ByteView(state.data(), state.size())).hex(),
              "4dc481d0cc07b0bf806124504a15196fbfb350dd444a0d0733682831b7541b4e");

    obs::Registry registry;
    vfs::MemVfs fs(1);
    rp::DurableStore store(fs, "st", rp::StoreOptions{2, "pin"}, &registry);
    store.open();
    const rp::CommitSource unchanged{[&] { return state; }, [] { return Bytes{}; }};
    store.commit(unchanged, 1);
    store.commit(unchanged, 2);
    store.commit(unchanged, 3);  // finds two frames: the fold, one image frame
    const Bytes wal = fs.readFile(store.walPath());
    EXPECT_EQ(sha256(ByteView(wal.data(), wal.size())).hex(),
              "648c470a05161946eb5366b97c1624fff63f831be1694d8e6032a38226740b37");
}

TEST(FuzzDecode, MutatedSignaturesNeverVerify) {
    // Signature forgery via byte-level mutation must always fail.
    Rng rng(99);
    Signer signer = Signer::generate(123, 3);
    const std::string msg = "the exact message";
    const Bytes sig = signer.sign(msg);
    const PublicKey pub = signer.publicKey();
    for (int iter = 0; iter < 300; ++iter) {
        Bytes mutated = sig;
        const int flips = static_cast<int>(rng.nextInRange(1, 4));
        for (int f = 0; f < flips; ++f) {
            mutated[static_cast<std::size_t>(rng.nextBelow(mutated.size()))] ^=
                static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        }
        if (mutated == sig) continue;
        EXPECT_FALSE(verify(pub, msg, ByteView(mutated.data(), mutated.size())));
    }
}

}  // namespace
}  // namespace rpkic
