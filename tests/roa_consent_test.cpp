// The footnote-8 extension: ROAs entitled to consent via EE keys. With it
// enabled, Case Study 2's silent ROA deletion becomes an accountable
// unilateral-revocation alarm.
#include <gtest/gtest.h>

#include "consent/authority.hpp"
#include "rp/relying_party.hpp"
#include "rpki/signing.hpp"

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
    AuthorityDirectory dir{61, AuthorityOptions{.ts = 3, .signerHeight = 6,
                                                .manifestLifetime = 100,
                                                .roaConsentViaEe = true}};
    SimClock clock;
    Authority* root;
    Authority* isp;

    Fixture() {
        root = &dir.createTrustAnchor("root", ResourceSet::ofPrefixes({pfx("79.0.0.0/8")}),
                                      repo, clock.now());
        isp = &dir.createChild(*root, "ru-isp",
                               ResourceSet::ofPrefixes({pfx("79.139.96.0/19")}), repo,
                               clock.now());
        isp->issueRoa("covering", 43782, {{pfx("79.139.96.0/19"), 20}}, repo, clock.now());
        isp->issueRoa("victim", 51813, {{pfx("79.139.96.0/24"), 24}}, repo, clock.now());
    }

    RelyingParty rp(const std::string& name) {
        return RelyingParty(name, {root->cert()}, RpOptions{.ts = 3, .tg = 6});
    }
};

TEST(RoaConsent, IssuedRoasCarryEeKeys) {
    Fixture f;
    const Snapshot snap = f.repo.snapshot();
    const Bytes* raw = snap.file(f.isp->pubPointUri(), "victim.roa");
    ASSERT_NE(raw, nullptr);
    const Roa roa = Roa::decode(ByteView(raw->data(), raw->size()));
    EXPECT_TRUE(roa.hasEeKey);
}

TEST(RoaConsent, ConsensualDeletionRaisesNoAlarm) {
    Fixture f;
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    f.clock.advance(1);
    f.isp->deleteRoa("victim", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().count(), 0u)
        << (alice.alarms().count() ? alice.alarms().all()[0].str() : "");
    EXPECT_EQ(alice.validRoas().size(), 1u);
}

TEST(RoaConsent, CaseStudy2BecomesAccountable) {
    // The very event of Case Study 2 — ROA deleted while a covering ROA
    // remains — is silent in the current RPKI. With EE consent the relying
    // party raises an accountable unilateral-revocation alarm naming the
    // victim ROA.
    Fixture f;
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    f.clock.advance(1);
    f.isp->unsafeDeleteRoaWithoutConsent("victim", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    const auto alarms = alice.alarms().ofType(AlarmType::UnilateralRevocation);
    ASSERT_EQ(alarms.size(), 1u);
    EXPECT_TRUE(alarms[0].accountable);
    EXPECT_EQ(alarms[0].victim, f.isp->pubPointUri() + "victim.roa");
    EXPECT_EQ(alarms[0].perpetrator, f.isp->cert().uri);
}

TEST(RoaConsent, ForgedEeDeadDoesNotCount) {
    Fixture f;
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());

    // Fabricate a .dead signed by the wrong key, then whack the ROA.
    f.clock.advance(1);
    const Snapshot snap = f.repo.snapshot();
    const Bytes* raw = snap.file(f.isp->pubPointUri(), "victim.roa");
    ASSERT_NE(raw, nullptr);
    const Roa roa = Roa::decode(ByteView(raw->data(), raw->size()));
    DeadObject forged;
    forged.rcUri = roa.uri;
    forged.rcSerial = roa.serial;
    forged.rcHash = fileHashOf(ByteView(raw->data(), raw->size()));
    forged.fullRevocation = true;
    Signer wrongKey = Signer::generate(777, 2);
    const Bytes body = forged.encodeBody();
    forged.signature = wrongKey.sign(ByteView(body.data(), body.size()));

    f.isp->unsafeReintroduceFile("victim.roa.2.fake.dead", forged.encode(), f.repo,
                                 f.clock.now());
    f.isp->unsafeDeleteRoaWithoutConsent("victim", f.repo, f.clock.now());
    alice.sync(f.repo.snapshot(), f.clock.now());

    EXPECT_TRUE(alice.alarms().has(AlarmType::InvalidSyntax))
        << "the forged .dead is provably bad";
    EXPECT_TRUE(alice.alarms().has(AlarmType::UnilateralRevocation))
        << "and it does not count as consent";
}

TEST(RoaConsent, BatchIssuedRoasCarryEeKeysAndConsentOnDelete) {
    // issueRoas is the same issuance as issueRoa: each ROA of the batch
    // gets its own EE key, and deleting one publishes its EE-signed .dead.
    Fixture f;
    f.clock.advance(1);
    f.isp->issueRoas({{"batch-a", 64501, {{pfx("79.139.100.0/24"), 24}}},
                      {"batch-b", 64502, {{pfx("79.139.101.0/24"), 24}}}},
                     f.repo, f.clock.now());
    RelyingParty alice = f.rp("alice");
    alice.sync(f.repo.snapshot(), f.clock.now());
    ASSERT_EQ(alice.alarms().count(), 0u);

    const Bytes* raw = f.repo.file(f.isp->pubPointUri(), "batch-a.roa");
    ASSERT_NE(raw, nullptr);
    const Roa roa = Roa::decode(ByteView(raw->data(), raw->size()));
    ASSERT_TRUE(roa.hasEeKey);
    const Bytes* otherRaw = f.repo.file(f.isp->pubPointUri(), "batch-b.roa");
    ASSERT_NE(otherRaw, nullptr);
    const Roa other = Roa::decode(ByteView(otherRaw->data(), otherRaw->size()));
    EXPECT_TRUE(other.hasEeKey);
    EXPECT_NE(roa.eeKey, other.eeKey);

    f.clock.advance(1);
    f.isp->deleteRoa("batch-a", f.repo, f.clock.now());
    const std::string deadName = "batch-a.roa." + std::to_string(roa.serial) + ".ee.dead";
    const Bytes* deadRaw = f.repo.file(f.isp->pubPointUri(), deadName);
    ASSERT_NE(deadRaw, nullptr) << "no EE-signed .dead published";
    const DeadObject dead = DeadObject::decode(ByteView(deadRaw->data(), deadRaw->size()));
    EXPECT_EQ(dead.rcUri, roa.uri);
    EXPECT_TRUE(verifyObject(dead, roa.eeKey));

    alice.sync(f.repo.snapshot(), f.clock.now());
    EXPECT_EQ(alice.alarms().count(), 0u)
        << (alice.alarms().count() ? alice.alarms().all()[0].str() : "");
    EXPECT_TRUE(alice.sawDeadFor(roa.uri, roa.serial));
}

TEST(RoaConsent, LegacyRoasWithoutEeKeysStaySilent) {
    // Mixed population: ROAs minted before the extension carry no EE key
    // and their deletion stays non-alarming (backwards compatible).
    Repository repo;
    AuthorityDirectory dir(62, AuthorityOptions{.ts = 3, .signerHeight = 6,
                                                .manifestLifetime = 100,
                                                .roaConsentViaEe = false});
    SimClock clock;
    Authority& root = dir.createTrustAnchor(
        "root", ResourceSet::ofPrefixes({pfx("10.0.0.0/8")}), repo, clock.now());
    Authority& org = dir.createChild(root, "org", ResourceSet::ofPrefixes({pfx("10.1.0.0/16")}),
                                     repo, clock.now());
    org.issueRoa("legacy", 64500, {{pfx("10.1.0.0/20"), 24}}, repo, clock.now());

    RelyingParty alice("alice", {root.cert()}, RpOptions{.ts = 3, .tg = 6});
    alice.sync(repo.snapshot(), clock.now());

    clock.advance(1);
    org.deleteRoa("legacy", repo, clock.now());
    alice.sync(repo.snapshot(), clock.now());
    EXPECT_EQ(alice.alarms().count(), 0u);
}

}  // namespace
}  // namespace rpkic
