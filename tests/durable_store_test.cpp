// Durable store + crash-consistency suite: MemVfs crash semantics, the
// WAL/checkpoint store's commit/recover contract, the torn-write and
// bit-flip matrices over the on-disk formats, the exhaustive per-VFS-op
// crash sweep, and the chaos soak's kill/restart mode (invariants I8/I9
// plus plan replay determinism). See docs/DURABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "util/errors.hpp"
#include "util/vfs.hpp"

namespace rpkic {
namespace {

using rp::DurableStore;
using rp::RecoveryReport;
using rp::StoreOptions;

Bytes blob(const std::string& s) {
    return Bytes(s.begin(), s.end());
}

ByteView view(const Bytes& b) {
    return ByteView(b.data(), b.size());
}

// ---------------------------------------------------------------------------
// MemVfs crash semantics

TEST(MemVfs, SyncedPrefixSurvivesACrashUnsyncedTailTears) {
    vfs::MemVfs fs(7);
    fs.writeFile("dir/a", view(blob("durable")));
    fs.sync("dir/a");
    fs.appendFile("dir/a", view(blob("-volatile-tail")));

    fs.crashNow();

    const Bytes after = fs.readFile("dir/a");
    ASSERT_GE(after.size(), 7u);  // synced prefix is guaranteed
    EXPECT_EQ(Bytes(after.begin(), after.begin() + 7), blob("durable"));
    EXPECT_LE(after.size(), blob("durable-volatile-tail").size());
}

TEST(MemVfs, OverwriteVoidsDurabilityAndNeverSyncedFilesMayVanish) {
    // Same seed, same op history => the collapse is deterministic, so we
    // can assert exact outcomes for this seed.
    vfs::MemVfs fs(1);
    fs.writeFile("a", view(blob("first")));
    fs.sync("a");
    fs.writeFile("a", view(blob("second!")));  // truncate+rewrite: all volatile
    fs.writeFile("b", view(blob("never-synced")));
    fs.crashNow();

    // 'a' collapsed to some prefix of "second!" (possibly empty) — the old
    // durable content is gone because the overwrite truncated it.
    const Bytes a = fs.readFile("a");
    const Bytes want = blob("second!");
    ASSERT_LE(a.size(), want.size());
    EXPECT_EQ(Bytes(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(a.size())), a);
    // 'b' either vanished or is a prefix; it must not be fully durable by
    // magic. (Existence depends on the seeded tear point.)
    if (fs.exists("b")) {
        const Bytes b = fs.readFile("b");
        EXPECT_LE(b.size(), blob("never-synced").size());
    }
}

TEST(MemVfs, RenameIsAtomicAndDurable) {
    vfs::MemVfs fs(3);
    fs.writeFile("t/x.tmp", view(blob("payload")));
    fs.sync("t/x.tmp");
    fs.renameFile("t/x.tmp", "t/x");
    fs.crashNow();
    EXPECT_FALSE(fs.exists("t/x.tmp"));
    EXPECT_EQ(fs.readFile("t/x"), blob("payload"));
}

TEST(MemVfs, ArmedFaultFailsWithoutEffectArmedCrashCollapses) {
    vfs::MemVfs fs(5);
    fs.writeFile("f", view(blob("one")));
    fs.sync("f");

    // Fail the next mutating op: no crash, no effect.
    fs.armFailAt(fs.opCount());
    EXPECT_THROW(fs.writeFile("f", view(blob("two"))), vfs::IoError);
    EXPECT_EQ(fs.readFile("f"), blob("one"));

    // The op after that succeeds (the trigger is one-shot).
    fs.writeFile("f", view(blob("three")));
    EXPECT_EQ(fs.readFile("f"), blob("three"));

    // Crash at op N: CrashInjected reports N, volatile state collapsed.
    const std::uint64_t at = fs.opCount();
    fs.armCrashAt(at);
    try {
        fs.appendFile("f", view(blob("-tail")));
        FAIL() << "armed crash did not fire";
    } catch (const vfs::CrashInjected& c) {
        EXPECT_EQ(c.op(), at);
    }
    // The append never happened; "three" was never synced so only some
    // prefix survives.
    EXPECT_LE(fs.readFile("f").size(), 5u);
}

TEST(DiskVfs, RoundTripsThroughARealDirectory) {
    vfs::DiskVfs fs;
    const std::string dir = "disk-vfs-test-dir";
    fs.makeDir(dir);
    const std::string tmp = vfs::joinPath(dir, "f.tmp");
    const std::string fin = vfs::joinPath(dir, "f");
    fs.writeFile(tmp, view(blob("hello")));
    fs.appendFile(tmp, view(blob(" world")));
    fs.sync(tmp);
    fs.renameFile(tmp, fin);
    EXPECT_TRUE(fs.exists(fin));
    EXPECT_FALSE(fs.exists(tmp));
    EXPECT_EQ(fs.readFile(fin), blob("hello world"));
    const auto names = fs.listDir(dir);
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "f");
    fs.removeFile(fin);
    EXPECT_FALSE(fs.exists(fin));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DurableStore: commit / recover / checkpoint / poisoning

TEST(DurableStore, CommitsSurviveReopenNewestWins) {
    obs::Registry reg;
    vfs::MemVfs fs(11);
    DurableStore store(fs, "st", StoreOptions{0, "t"}, &reg);  // no auto-ckpt
    EXPECT_FALSE(store.lastRecovery().recovered);
    EXPECT_THROW(store.commit(blob("x")), UsageError);  // before open()

    store.open();
    EXPECT_FALSE(store.lastRecovery().recovered);
    store.commit(blob("v1"), 1);
    store.commit(blob("v2"), 2);
    store.commit(blob("v3"), 3);
    EXPECT_EQ(store.latestLsn(), 3u);

    DurableStore again(fs, "st", StoreOptions{0, "t"}, &reg);
    const RecoveryReport rec = again.open();
    EXPECT_TRUE(rec.recovered);
    EXPECT_FALSE(rec.usedCheckpoint);
    EXPECT_EQ(rec.walRecordsReplayed, 3u);
    EXPECT_EQ(rec.tornBytesDiscarded, 0u);
    ASSERT_TRUE(again.latest().has_value());
    EXPECT_EQ(*again.latest(), blob("v3"));
    EXPECT_EQ(again.latestMeta(), 3u);
}

TEST(DurableStore, CheckpointFoldsWalAndRecoveryPrefersIt) {
    obs::Registry reg;
    vfs::MemVfs fs(13);
    DurableStore store(fs, "st", StoreOptions{2, "t"}, &reg);
    store.open();
    store.commit(blob("a"), 1);
    store.commit(blob("b"), 2);  // triggers the checkpoint fold
    EXPECT_TRUE(fs.exists(store.checkpointPath(2)));
    EXPECT_EQ(fs.readFile(store.walPath()).size(), 0u);  // WAL reset
    store.commit(blob("c"), 3);  // lands in the fresh WAL

    DurableStore again(fs, "st", StoreOptions{2, "t"}, &reg);
    const RecoveryReport rec = again.open();
    EXPECT_TRUE(rec.usedCheckpoint);
    EXPECT_EQ(rec.checkpointSeq, 2u);
    EXPECT_EQ(rec.walRecordsReplayed, 1u);
    ASSERT_TRUE(again.latest().has_value());
    EXPECT_EQ(*again.latest(), blob("c"));
    EXPECT_EQ(again.latestMeta(), 3u);
    // LSNs continue across the reopen.
    again.commit(blob("d"), 4);
    EXPECT_EQ(again.latestLsn(), 4u);
}

TEST(DurableStore, IoFailurePoisonsUntilReopenRepairs) {
    obs::Registry reg;
    vfs::MemVfs fs(17);
    DurableStore store(fs, "st", StoreOptions{0, "t"}, &reg);
    store.open();
    store.commit(blob("good"), 1);

    fs.armFailAt(fs.opCount());  // fail the next append
    EXPECT_THROW(store.commit(blob("bad"), 2), vfs::IoError);
    EXPECT_TRUE(store.isPoisoned());
    // The failed commit did not happen; the store refuses to append after
    // a possibly-partial tail but still serves the committed payload.
    ASSERT_TRUE(store.latest().has_value());
    EXPECT_EQ(*store.latest(), blob("good"));
    EXPECT_THROW(store.commit(blob("bad2"), 2), UsageError);
    EXPECT_THROW(store.checkpointNow(), UsageError);

    const RecoveryReport rec = store.open();  // repair
    EXPECT_FALSE(store.isPoisoned());
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(*store.latest(), blob("good"));
    store.commit(blob("after"), 2);
    EXPECT_EQ(*store.latest(), blob("after"));
}

// ---------------------------------------------------------------------------
// Torn-write and bit-flip matrices: recovery from every WAL truncation and
// every single-byte corruption must yield a committed payload (or nothing,
// when no commit survives) — never a mixture, never an exception.

class WalMatrix : public ::testing::Test {
protected:
    void SetUp() override {
        vfs::MemVfs fs(23);
        DurableStore store(fs, "st", StoreOptions{0, "m"}, &reg_);
        store.open();
        for (int i = 1; i <= 4; ++i) {
            const Bytes payload = blob("payload-" + std::to_string(i));
            committed_.push_back(payload);
            store.commit(payload, static_cast<std::uint64_t>(i));
        }
        wal_ = fs.readFile(store.walPath());
        walPath_ = store.walPath();
    }

    /// Opens a store over a WAL image and asserts the recovery contract.
    void checkImage(const Bytes& image, const char* what, std::size_t at) {
        obs::Registry reg;
        vfs::MemVfs fs(29);
        fs.makeDir("st");
        fs.writeFile(walPath_, view(image));
        fs.sync(walPath_);
        DurableStore store(fs, "st", StoreOptions{0, "m"}, &reg);
        RecoveryReport rec;
        ASSERT_NO_THROW(rec = store.open()) << what << " at " << at;
        if (store.latest().has_value()) {
            const std::uint64_t meta = store.latestMeta();
            ASSERT_GE(meta, 1u) << what << " at " << at;
            ASSERT_LE(meta, committed_.size()) << what << " at " << at;
            EXPECT_EQ(*store.latest(), committed_[meta - 1])
                << what << " at " << at << ": recovered a mixture state";
        }
        // Repair must leave the store usable.
        ASSERT_NO_THROW(store.commit(blob("fresh"), 99)) << what << " at " << at;
    }

    obs::Registry reg_;
    std::vector<Bytes> committed_;
    Bytes wal_;
    std::string walPath_;
};

TEST_F(WalMatrix, EveryTruncationRecoversACommittedPayload) {
    for (std::size_t cut = 0; cut <= wal_.size(); ++cut) {
        checkImage(Bytes(wal_.begin(), wal_.begin() + static_cast<std::ptrdiff_t>(cut)),
                   "truncation", cut);
    }
}

TEST_F(WalMatrix, EverySingleByteCorruptionRecoversACommittedPayload) {
    for (std::size_t i = 0; i < wal_.size(); ++i) {
        Bytes image = wal_;
        image[i] ^= 0x41;
        checkImage(image, "bit flip", i);
    }
}

TEST(DurableStore, CorruptCheckpointFallsBackToOlderState) {
    obs::Registry reg;
    vfs::MemVfs fs(31);
    DurableStore store(fs, "st", StoreOptions{2, "t"}, &reg);
    store.open();
    store.commit(blob("a"), 1);
    store.commit(blob("b"), 2);  // checkpoint at lsn 2, WAL reset
    store.commit(blob("c"), 3);
    store.commit(blob("d"), 4);  // checkpoint at lsn 4

    // Flip a byte inside the newest checkpoint: recovery must fall back
    // (here: to the WAL-less older state via the lsn-2 checkpoint if it
    // still exists, else whatever remains) and flag the repair.
    Bytes ckpt = fs.readFile(store.checkpointPath(4));
    ckpt[ckpt.size() / 2] ^= 0xff;
    fs.writeFile(store.checkpointPath(4), view(ckpt));
    fs.sync(store.checkpointPath(4));

    DurableStore again(fs, "st", StoreOptions{2, "t"}, &reg);
    const RecoveryReport rec = again.open();
    EXPECT_EQ(rec.corruptCheckpointsDiscarded, 1u);
    EXPECT_TRUE(rec.repaired);
    if (again.latest().has_value()) {
        const std::vector<Bytes> committed = {blob("a"), blob("b"), blob("c"), blob("d")};
        EXPECT_TRUE(std::find(committed.begin(), committed.end(), *again.latest()) !=
                    committed.end());
    }
    // The corrupt file was removed so future recoveries skip the retry.
    EXPECT_FALSE(fs.exists(again.checkpointPath(4)));
}

TEST(DurableStore, RepairSurvivesCorruptCheckpointAtTheReplayedLsn) {
    // Regression (found by fuzz_wal): a corrupt checkpoint file whose name
    // matches the LSN the WAL replays to collides with the repair
    // checkpoint. Repair must remove the corrupt file BEFORE folding, or
    // it deletes its own freshly written checkpoint and the next recovery
    // comes up empty.
    obs::Registry reg;
    vfs::MemVfs fs(7);
    DurableStore store(fs, "st", StoreOptions{0, "t"}, &reg);
    store.open();
    store.commit(blob("payload-1"), 11);  // WAL frame at lsn 1

    // Plant garbage where the repair checkpoint for lsn 1 will land.
    fs.writeFile(store.checkpointPath(1), view(blob("not a checkpoint")));
    fs.sync(store.checkpointPath(1));

    DurableStore repaired(fs, "st", StoreOptions{0, "t"}, &reg);
    const RecoveryReport rec = repaired.open();
    EXPECT_EQ(rec.corruptCheckpointsDiscarded, 1u);
    EXPECT_TRUE(rec.repaired);
    ASSERT_TRUE(repaired.latest().has_value());
    EXPECT_EQ(*repaired.latest(), blob("payload-1"));

    // The state survives ANOTHER recovery — the repair checkpoint exists
    // and passes its checksum.
    DurableStore again(fs, "st", StoreOptions{0, "t"}, &reg);
    const RecoveryReport rec2 = again.open();
    EXPECT_EQ(rec2.corruptCheckpointsDiscarded, 0u);
    ASSERT_TRUE(again.latest().has_value());
    EXPECT_EQ(*again.latest(), blob("payload-1"));
    EXPECT_EQ(again.latestMeta(), 11u);
    EXPECT_EQ(again.latestLsn(), 1u);
}

// ---------------------------------------------------------------------------
// Exhaustive crash sweep (tentpole proof; see sim/crash_sweep.hpp)

TEST(CrashSweep, EveryVfsOperationIsASafeCrashPoint) {
    sim::SweepConfig cfg;
    cfg.seed = 5;
    cfg.rounds = 6;
    cfg.checkpointEvery = 2;
    const sim::SweepResult r = sim::runCrashSweep(cfg);
    for (const auto& v : r.violations) ADD_FAILURE() << v;
    EXPECT_TRUE(r.passed);
    EXPECT_GT(r.crashPoints, 20u);  // appends, fsyncs, and checkpoint folds
    EXPECT_EQ(r.crashesFired, r.crashPoints);
    EXPECT_EQ(r.recoveredPre + r.recoveredPost + r.recoveredNone, r.crashesFired);
    EXPECT_GT(r.recoveredPre, 0u);
    EXPECT_GT(r.recoveredPost, 0u);
}

TEST(CrashSweep, HonestWorldSweepAlsoHolds) {
    sim::SweepConfig cfg;
    cfg.seed = 9;
    cfg.rounds = 5;
    cfg.checkpointEvery = 3;
    cfg.adversarialProbability = 0.0;
    const sim::SweepResult r = sim::runCrashSweep(cfg);
    for (const auto& v : r.violations) ADD_FAILURE() << v;
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.crashesFired, r.crashPoints);
}

// ---------------------------------------------------------------------------
// Chaos soak kill/restart mode (I8/I9) and plan replay determinism

TEST(ChaosSoakCrash, KillRestartSoakHoldsAllInvariants) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        sim::SoakConfig cfg;
        cfg.seed = seed;
        cfg.rounds = 18;
        cfg.crashEvery = 3;
        const sim::SoakResult r = sim::runSoak(cfg);
        for (const auto& v : r.violations) ADD_FAILURE() << "seed " << seed << ": " << v;
        EXPECT_TRUE(r.passed) << "seed " << seed;
        EXPECT_GT(r.stats.crashes, 0u) << "seed " << seed;
        EXPECT_EQ(r.stats.storeRecoveries, r.stats.crashes) << "seed " << seed;
        EXPECT_GE(r.stats.storeCommits, r.rounds.size()) << "seed " << seed;
        EXPECT_EQ(r.plan.crashEvery, 3u);
    }
}

TEST(ChaosSoakCrash, CrashPlansReplayIdentically) {
    sim::SoakConfig cfg;
    cfg.seed = 4;
    cfg.rounds = 15;
    cfg.crashEvery = 4;
    const sim::SoakResult first = sim::runSoak(cfg);
    EXPECT_TRUE(first.passed);
    EXPECT_GT(first.stats.crashes, 0u);

    const FaultPlan parsed = FaultPlan::parse(first.plan.serialize());
    EXPECT_EQ(parsed.crashEvery, 4u);
    const sim::SoakResult again = sim::runSoakWithPlan(parsed);
    EXPECT_EQ(again.violations, first.violations);
    EXPECT_EQ(again.stats.crashes, first.stats.crashes);
    EXPECT_EQ(again.stats.storeTornBytes, first.stats.storeTornBytes);
    EXPECT_EQ(again.stats.alarms, first.stats.alarms);
    EXPECT_EQ(again.stats.validRoasFinal, first.stats.validRoasFinal);
    EXPECT_EQ(again.rounds.size(), first.rounds.size());
}

TEST(ChaosSoakCrash, DurabilityLayerIsFullyDisabledAtCrashEveryZero) {
    sim::SoakConfig cfg;
    cfg.seed = 6;
    cfg.rounds = 8;
    cfg.crashEvery = 0;  // no kills: just exercise commit-per-round
    const sim::SoakResult r = sim::runSoak(cfg);
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.stats.crashes, 0u);
    EXPECT_EQ(r.stats.storeCommits, 0u);  // durability disabled entirely
}

}  // namespace
}  // namespace rpkic
