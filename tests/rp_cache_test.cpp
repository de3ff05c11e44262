// Relying-party persistence: the serialized cache restores the exact
// state, and — the property that matters — transition detection works
// ACROSS the save/load boundary: a unilateral revocation between two
// process lifetimes is still caught.
#include <gtest/gtest.h>

#include "consent/authority.hpp"
#include "rp/relying_party.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::AlarmType;
using rp::RelyingParty;
using rp::RpOptions;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

struct Fixture {
    Repository repo;
    AuthorityDirectory dir{121, AuthorityOptions{.ts = 4, .signerHeight = 6,
                                                 .manifestLifetime = 1000}};
    SimClock clock;
    Authority* root;
    Authority* org;

    Fixture() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
        org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());
    }
};

TEST(RpCache, SerializedStateRestoresIdentically) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());

    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));

    EXPECT_EQ(restored.name(), alice.name());
    EXPECT_EQ(restored.roaState(), alice.roaState());
    EXPECT_EQ(restored.alarms().count(), alice.alarms().count());
    const auto claimsA = alice.exportManifestClaims();
    const auto claimsB = restored.exportManifestClaims();
    ASSERT_EQ(claimsA.size(), claimsB.size());
    for (std::size_t i = 0; i < claimsA.size(); ++i) {
        EXPECT_EQ(claimsA[i].bodyHash, claimsB[i].bodyHash);
        EXPECT_EQ(claimsA[i].number, claimsB[i].number);
    }
    // And re-serialization is byte-identical (canonical state).
    EXPECT_EQ(restored.serializeState(), blob);
}

TEST(RpCache, TransitionDetectionSurvivesRestart) {
    Fixture f;
    Bytes blob;
    {
        // Process 1: sync day 0, persist, exit.
        RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
        alice.sync(f.repo.snapshot(), f.clock.now());
        ASSERT_EQ(alice.alarms().count(), 0u);
        blob = alice.serializeState();
    }

    // The world moves on: a unilateral revocation happens meanwhile.
    f.clock.advance(1);
    f.root->unsafeUnilateralRevokeChild("org", f.repo, f.clock.now());

    {
        // Process 2: restore, sync day 1 — the takedown must be caught with
        // full accountability, exactly as if the process had never exited.
        RelyingParty alice = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
        alice.sync(f.repo.snapshot(), f.clock.now());
        const auto alarms = alice.alarms().ofType(AlarmType::UnilateralRevocation);
        ASSERT_FALSE(alarms.empty());
        EXPECT_TRUE(alarms[0].accountable);
        EXPECT_EQ(alarms[0].victim, f.org->cert().uri);
        EXPECT_EQ(alarms[0].perpetrator, f.root->cert().uri);
    }
}

TEST(RpCache, ConsentKnowledgeSurvivesRestart) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());

    f.clock.advance(1);
    const auto deads = f.dir.collectRevocationConsent(*f.org);
    f.root->revokeChild("org", deads, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_TRUE(alice.sawDeadFor(f.org->cert().uri, f.org->cert().serial));

    const Bytes blob = alice.serializeState();
    RelyingParty restored = RelyingParty::deserializeState(ByteView(blob.data(), blob.size()));
    EXPECT_TRUE(restored.sawDeadFor(f.org->cert().uri, f.org->cert().serial));
    EXPECT_EQ(restored.alarms().count(), 0u);
}

TEST(RpCache, CorruptedCachesAreRejected) {
    Fixture f;
    RelyingParty alice("alice", {f.root->cert()}, RpOptions{.ts = 4, .tg = 8});
    alice.sync(f.repo.snapshot(), f.clock.now());
    const Bytes blob = alice.serializeState();

    // Truncations at various depths must throw from the decoder, never
    // crash or half-load.
    for (std::size_t len = 0; len < blob.size(); len += blob.size() / 23 + 1) {
        EXPECT_THROW((void)RelyingParty::deserializeState(ByteView(blob.data(), len)),
                     ParseError)
            << "length " << len;
    }
    // Bad magic.
    Bytes badMagic = blob;
    badMagic[0] ^= 0xff;
    EXPECT_THROW(
        (void)RelyingParty::deserializeState(ByteView(badMagic.data(), badMagic.size())),
        ParseError);
    // Random bit flips either throw ParseError or produce a cache that
    // still serializes (no UB / crashes).
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        Bytes mutated = blob;
        mutated[static_cast<std::size_t>(rng.nextBelow(mutated.size()))] ^=
            static_cast<std::uint8_t>(1u << rng.nextBelow(8));
        try {
            RelyingParty restored =
                RelyingParty::deserializeState(ByteView(mutated.data(), mutated.size()));
            (void)restored.serializeState();
        } catch (const ParseError&) {
        }
    }
}

}  // namespace
}  // namespace rpkic
