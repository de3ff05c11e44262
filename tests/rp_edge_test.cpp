// Relying-party edge cases: replay prevention, stale-then-recover cycles,
// forged .dead objects, desynchronization beyond the preservation window,
// vertical ROA checks, hash-window expiry in the global check, and the
// checks a once-verified manifest still meets.
#include <gtest/gtest.h>

#include "consent/authority.hpp"
#include "rpki/chaos.hpp"
#include "rp/relying_party.hpp"

namespace rpkic {
namespace {

using consent::Authority;
using consent::AuthorityDirectory;
using consent::AuthorityOptions;
using rp::AlarmType;
using rp::RcStatus;
using rp::RelyingParty;
using rp::RpOptions;

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

struct Fixture {
    Repository repo;
    AuthorityDirectory dir{31, AuthorityOptions{.ts = 3, .signerHeight = 6,
                                                .manifestLifetime = 100}};
    SimClock clock;
    Authority* root;
    Authority* org;

    Fixture() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}),
                                      repo, clock.now());
        org = &dir.createChild(*root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                               repo, clock.now());
    }

    RelyingParty rp(const std::string& name) {
        return RelyingParty(name, {root->cert()}, RpOptions{.ts = 3, .tg = 6});
    }
};

TEST(RpEdge, ReplayedRcRaisesInvalidSyntax) {
    // §5.3.2 "Preventing replays": an authority cannot put a revoked RC
    // back and reuse its old .dead later — serials must keep increasing.
    Fixture f;
    Authority& victim = f.dir.createChild(
        *f.org, "victim", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}), f.repo, f.clock.now());
    const Bytes oldRcBytes = victim.cert().encode();
    const std::string rcFile = "victim.cer";

    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Consensual revocation first — no alarm.
    f.clock.advance(1);
    const auto deads = f.dir.collectRevocationConsent(victim);
    f.org->revokeChild("victim", deads, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // Replay: the old RC bytes reappear (old serial <= high-water mark).
    f.clock.advance(1);
    f.org->unsafeReintroduceFile(rcFile, oldRcBytes, f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    const auto alarms = alice.alarms().ofType(AlarmType::InvalidSyntax);
    ASSERT_FALSE(alarms.empty());
    EXPECT_TRUE(alarms[0].accountable);
    // Two independent rules catch this: "RC logged beside its own .dead"
    // (the .deads are still logged) and the serial high-water check.
    bool serialOrDead = false;
    for (const auto& a : alarms) {
        serialOrDead |= a.detail.find("serial") != std::string::npos ||
                        a.detail.find(".dead") != std::string::npos;
    }
    EXPECT_TRUE(serialOrDead);
    // The replayed RC must not become valid again.
    EXPECT_NE(alice.findRc(victim.cert().uri)->status, RcStatus::Valid);
}

TEST(RpEdge, StaleThenRecoverKeepsContinuity) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.validRoas().size(), 1u);

    // One sync where org's manifest is missing: stale, old data retained.
    f.clock.advance(1);
    Snapshot broken = f.repo.snapshot();
    ASSERT_TRUE(dropFile(broken, f.org->pubPointUri(), kManifestName));
    alice.sync(broken, f.clock.now());
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    EXPECT_EQ(alice.validRoas().size(), 1u) << "stale data is kept, not dropped";
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));

    // Next sync is healthy again, including an update made meanwhile.
    f.clock.advance(1);
    f.org->issueRoa("r2", 64501, {{pfx("10.1.16.0/20"), 24}}, f.repo, f.clock.now());
    const std::size_t alarmsBefore = alice.alarms().count();
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().count(), alarmsBefore) << "recovery raises nothing new";
    EXPECT_EQ(alice.validRoas().size(), 2u);
}

TEST(RpEdge, ForgedDeadIsRejected) {
    // A .dead whose signature does not verify under the named RC's key
    // must not count as consent (and is itself an accountable alarm).
    Fixture f;
    Authority& victim = f.dir.createChild(
        *f.org, "victim", ResourceSet::ofPrefixes({pfx("10.1.0.0/20")}), f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Forge: parent signs a .dead claiming to be the victim's.
    f.clock.advance(1);
    DeadObject forged;
    forged.rcUri = victim.cert().uri;
    forged.rcSerial = victim.cert().serial;
    forged.rcHash = fileHashOf(ByteView(victim.cert().encode().data(),
                                        victim.cert().encode().size()));
    forged.signerManifestHash = Digest{};
    forged.fullRevocation = true;
    // Signed by the WRONG key (the parent's own), via the consent-free
    // unilateral path plus a bogus file.
    {
        // The honest API refuses; assemble the attack by hand.
        Signer wrongKey = Signer::generate(4444, 4);
        const Bytes body = forged.encodeBody();
        forged.signature = wrongKey.sign(ByteView(body.data(), body.size()));
    }
    f.org->unsafeReintroduceFile("victim.cer.1.fake.dead", forged.encode(), f.repo,
                                 f.clock.now());
    f.org->unsafeUnilateralRevokeChild("victim", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    EXPECT_TRUE(alice.alarms().has(AlarmType::InvalidSyntax))
        << "the forged .dead is provably bad";
    EXPECT_TRUE(alice.alarms().has(AlarmType::UnilateralRevocation))
        << "and it does not count as consent";
    EXPECT_FALSE(alice.sawDeadFor(victim.cert().uri, victim.cert().serial));
}

TEST(RpEdge, DesyncBeyondPreservationWindowGoesStaleNotWrong) {
    // Alice sleeps past ts; the authority has pruned the preserved
    // manifests she would need. She raises missing-information and keeps
    // stale data rather than guessing.
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Many updates, spread far beyond ts = 3.
    for (int i = 0; i < 6; ++i) {
        f.clock.advance(2);
        f.org->issueRoa("r" + std::to_string(i), static_cast<Asn>(64501 + i),
                        {{pfx("10.1.16.0/20"), 24}}, f.repo, f.clock.now());
    }
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_TRUE(alice.alarms().has(AlarmType::MissingInformation));
    EXPECT_TRUE(alice.isPointStale(f.org->pubPointUri()));
    // Her ROA view is the stale one (1 ROA), not a half-applied mixture.
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(RpEdge, RoaOutsideIssuerSpaceAlarmsChildTooBroad) {
    Fixture f;
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // org's key signs a ROA for space org does not hold, and logs it.
    f.clock.advance(1);
    Roa bogus;
    bogus.uri = f.org->pubPointUri() + "bogus.roa";
    bogus.serial = 999;
    bogus.parentUri = f.org->cert().uri;
    bogus.asn = 666;
    bogus.prefixes = {{pfx("99.0.0.0/8"), 8}};
    // Signed with an arbitrary key: RP checks coverage, not ROA signatures
    // (signatures are the manifest's job in the new design).
    Signer key = Signer::generate(5555, 4);
    const Bytes body = bogus.encodeBody();
    bogus.signature = key.sign(ByteView(body.data(), body.size()));
    f.org->unsafeReintroduceFile("bogus.roa", bogus.encode(), f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    const auto alarms = alice.alarms().ofType(AlarmType::ChildTooBroad);
    ASSERT_FALSE(alarms.empty());
    EXPECT_NE(alarms[0].victim.find("bogus.roa"), std::string::npos);
    // The bogus ROA does not enter the valid set.
    for (const auto& roa : alice.validRoas()) {
        EXPECT_NE(roa.uri, bogus.uri);
    }
}

TEST(RpEdge, HashWindowExpiryMakesOldClaimsUnverifiable) {
    // Bob presents a manifest hash from before Alice's tg window: she can
    // no longer vouch for it — the check flags it (unaccountably).
    Fixture f;
    RelyingParty alice = f.rp("alice");
    RelyingParty bob = f.rp("bob");
    alice.sync(f.repo.snapshot(), f.clock.now());
    bob.sync(f.repo.snapshot(), f.clock.now());

    // Time passes beyond tg = 6 with fresh activity for Alice; Bob sleeps.
    for (int i = 0; i < 4; ++i) {
        f.clock.advance(2);
        f.org->issueRoa("r" + std::to_string(i), static_cast<Asn>(64500 + i),
                        {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
        alice.sync(f.repo.snapshot(), f.clock.now());
    }
    alice.globalConsistencyCheck(bob.exportManifestClaims(), f.clock.now());
    const auto alarms = alice.alarms().ofType(AlarmType::GlobalInconsistency);
    ASSERT_FALSE(alarms.empty());
    EXPECT_FALSE(alarms[0].accountable)
        << "Bob being ancient is suspicious but not provably the authority's fault";
}

TEST(RpEdge, TwoRelyingPartiesIndependentCaches) {
    // Alarms and staleness are per relying party.
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    RelyingParty bob = f.rp("bob");
    alice.sync(f.repo.snapshot(), f.clock.now());

    Snapshot broken = f.repo.snapshot();
    ASSERT_TRUE(corruptFile(broken, f.org->pubPointUri(), kManifestName, 3));
    bob.sync(broken, f.clock.now());

    EXPECT_EQ(alice.alarms().count(), 0u);
    EXPECT_GT(bob.alarms().count(), 0u);
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

// ---------------------------------------------------------------------------
// A manifest that verified once meets a change on a later sync. Serving the
// same manifest file under the same issuer key again skips only the
// signature check; each case below must still be caught.

bool raisedOnManifest(const RelyingParty& rp, const std::string& pointUri,
                      const std::string& detail) {
    for (const auto& a : rp.alarms().all()) {
        if (a.type == AlarmType::MissingInformation && a.victim == pointUri + kManifestName &&
            a.detail == detail) {
            return true;
        }
    }
    return false;
}

TEST(RpEdge, VerifiedManifestStillExpires) {
    Fixture f;
    f.org->issueRoa("r", 64500, {{pfx("10.1.0.0/20"), 24}}, f.repo, f.clock.now());
    const std::string orgPoint = f.org->pubPointUri();
    const Snapshot snap = f.repo.snapshot();
    RelyingParty alice = f.rp("alice");
    alice.sync(snap, f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // The same bytes, served once `now` reaches their nextUpdate.
    f.clock.advanceTo(f.org->currentManifest().nextUpdate);
    alice.sync(snap, f.clock.now());
    EXPECT_TRUE(raisedOnManifest(alice, orgPoint, "manifest is stale (expired)"));
    EXPECT_TRUE(alice.isPointStale(orgPoint));
}

TEST(RpEdge, VerifiedManifestFailsUnderReplacedIssuerKey) {
    Fixture f;
    const std::string orgPoint = f.org->pubPointUri();
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // The root replaces org's RC, under the same URI, by one with another
    // subject key; org's point serves the same bytes as before.
    f.clock.advance(1);
    const Signer otherKey = Signer::generate(7777, 2);
    f.root->unsafeIssueOversizedChild("org", otherKey.publicKey(), f.org->cert().resources,
                                      f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    const rp::RcRecord* issuer = alice.findRc(f.org->cert().uri);
    ASSERT_NE(issuer, nullptr);
    ASSERT_EQ(issuer->cert.subjectKey, otherKey.publicKey());
    EXPECT_TRUE(raisedOnManifest(alice, orgPoint, "manifest signature does not verify"));
    EXPECT_TRUE(alice.isPointStale(orgPoint));
}

TEST(RpEdge, VerifiedManifestBodyWithOtherSignatureFails) {
    Fixture f;
    const std::string orgPoint = f.org->pubPointUri();
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    // The same manifest body with different signature bytes.
    f.clock.advance(1);
    Snapshot forged = f.repo.snapshot();
    Bytes& wire = forged.points.at(orgPoint).at(kManifestName);
    Manifest m = Manifest::decode(ByteView(wire.data(), wire.size()));
    m.signature[m.signature.size() / 2] ^= 0x01;
    wire = m.encode();
    alice.sync(forged, f.clock.now());
    EXPECT_TRUE(raisedOnManifest(alice, orgPoint, "manifest signature does not verify"));
    EXPECT_TRUE(alice.isPointStale(orgPoint));
}

}  // namespace
}  // namespace rpkic
