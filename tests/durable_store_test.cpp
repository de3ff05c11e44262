// Durable store + crash-consistency suite: MemVfs crash semantics, the
// one-file WAL store's commit/recover contract, the torn-write and
// bit-flip matrices over the WAL, the recovered-equals-live check over
// delta chains, the store's per-round byte counters, the exhaustive
// per-VFS-op crash sweep, and the chaos soak's kill/restart mode
// (invariants I8/I9 plus plan replay determinism). See docs/DURABILITY.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "sim/chaos_soak.hpp"
#include "sim/crash_sweep.hpp"
#include "sim/harness.hpp"
#include "util/errors.hpp"
#include "util/vfs.hpp"

namespace rpkic {
namespace {

using rp::DurableStore;
using rp::RecoveredState;
using rp::RecoveryReport;
using rp::StoreOptions;

Bytes blob(const std::string& s) {
    return Bytes(s.begin(), s.end());
}

ByteView view(const Bytes& b) {
    return ByteView(b.data(), b.size());
}

/// A toy committed state for store tests: its image is its text and a
/// delta appends to it, so composing what open() recovers (image, then
/// each delta) gives the state back.
struct TextState {
    std::string text;
    std::string pending;  ///< appended since the last commit

    void append(const std::string& more) {
        text += more;
        pending += more;
    }
    void commit(DurableStore& store, std::uint64_t meta) {
        store.commit({[&] { return blob(text); }, [&] { return blob(pending); }}, meta);
        pending.clear();
    }
};

std::string composed(const RecoveredState& r) {
    std::string out(r.image.begin(), r.image.end());
    for (const Bytes& d : r.deltas) out.append(d.begin(), d.end());
    return out;
}

/// What a store directory holds after every commit: wal.log alone.
const std::vector<std::string> kOnlyTheWal = {"wal.log"};

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
// DurableStore: commit / recover / image commits / poisoning

TEST(DurableStore, CommitsSurviveReopenNewestWins) {
    obs::Registry reg;
    vfs::MemVfs fs(11);
    // Like SyncPolicy's attempt budget, a cadence of 0 is refused.
    EXPECT_THROW(DurableStore(fs, "st", StoreOptions{0, "t"}, &reg), UsageError);
    DurableStore store(fs, "st", StoreOptions{8, "t"}, &reg);
    TextState state;
    EXPECT_FALSE(store.lastRecovery().recovered);
    EXPECT_THROW(state.commit(store, 0), UsageError);  // before open()

    store.open();
    EXPECT_FALSE(store.lastRecovery().recovered);
    for (const char* v : {"v1", "v2", "v3"}) {
        state.append(v);
        state.commit(store, store.latestLsn() + 1);
    }
    EXPECT_EQ(store.latestLsn(), 3u);

    EXPECT_EQ(fs.listDir("st"), kOnlyTheWal);

    DurableStore again(fs, "st", StoreOptions{8, "t"}, &reg);
    RecoveredState got;
    const RecoveryReport rec = again.open(&got);
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(rec.walRecordsReplayed, 3u);
    EXPECT_EQ(rec.tornBytesDiscarded, 0u);
    // The first commit after open() framed the image, the others deltas.
    EXPECT_EQ(got.image, blob("v1"));
    EXPECT_EQ(got.deltas, (std::vector<Bytes>{blob("v2"), blob("v3")}));
    EXPECT_EQ(composed(got), "v1v2v3");
    EXPECT_EQ(got.meta, 3u);
    EXPECT_EQ(got.lsn, 3u);
    EXPECT_EQ(again.latestMeta(), 3u);
}

TEST(DurableStore, CheckpointFoldsWalAndRecoveryPrefersIt) {
    // A checkpoint is an image commit: it starts a fresh WAL with the
    // image, and recovery starts from that frame.
    obs::Registry reg;
    vfs::MemVfs fs(13);
    DurableStore store(fs, "st", StoreOptions{2, "t"}, &reg);
    TextState state;
    store.open();
    state.append("a");
    state.commit(store, 1);  // the image commit after open()
    state.append("b");
    state.commit(store, 2);  // a delta: the WAL holds two frames
    const obs::Labels labels = {{"store", "t"}};
    EXPECT_EQ(reg.counter("rc_store_checkpoints_total", "", labels).value(), 1u);
    EXPECT_EQ(reg.counter("rc_store_wal_appends_total", "", labels).value(), 1u);
    const std::size_t twoFrames = fs.readFile(store.walPath()).size();
    state.append("c");
    state.commit(store, 3);  // finds two frames: an image commit
    EXPECT_EQ(reg.counter("rc_store_checkpoints_total", "", labels).value(), 2u);
    EXPECT_EQ(reg.counter("rc_store_wal_appends_total", "", labels).value(), 1u);
    EXPECT_EQ(fs.listDir("st"), kOnlyTheWal);
    EXPECT_LT(fs.readFile(store.walPath()).size(), twoFrames);  // one frame again
    state.append("d");
    state.commit(store, 4);  // a delta in the fresh WAL

    DurableStore again(fs, "st", StoreOptions{2, "t"}, &reg);
    RecoveredState got;
    const RecoveryReport rec = again.open(&got);
    EXPECT_EQ(rec.walRecordsReplayed, 2u);
    EXPECT_EQ(got.image, blob("abc"));  // the image commit's frame
    EXPECT_EQ(got.deltas, std::vector<Bytes>{blob("d")});
    EXPECT_EQ(got.lsn, 4u);
    EXPECT_EQ(again.latestMeta(), 4u);
    // LSNs continue across the reopen, and the first commit after it is an
    // image commit, whatever the WAL held.
    state.append("e");
    state.commit(again, 5);
    EXPECT_EQ(again.latestLsn(), 5u);
    EXPECT_EQ(fs.listDir("st"), kOnlyTheWal);
    DurableStore third(fs, "st", StoreOptions{2, "t"}, &reg);
    third.open(&got);
    EXPECT_EQ(got.image, blob("abcde"));
    EXPECT_TRUE(got.deltas.empty());
    EXPECT_EQ(got.lsn, 5u);
}

TEST(DurableStore, IoFailurePoisonsUntilReopenRepairs) {
    obs::Registry reg;
    vfs::MemVfs fs(17);
    DurableStore store(fs, "st", StoreOptions{8, "t"}, &reg);
    TextState state;
    store.open();
    state.append("good");
    state.commit(store, 1);

    fs.armFailAt(fs.opCount());  // fail the next append
    state.append("-bad");
    EXPECT_THROW(state.commit(store, 2), vfs::IoError);
    EXPECT_TRUE(store.isPoisoned());
    // The failed commit did not happen, and the store refuses to append
    // after a possibly-partial tail.
    EXPECT_THROW(state.commit(store, 2), UsageError);

    // An unreadable WAL is not an empty one: open() throws and the store
    // stays closed, so no image commit can replace what it could not read.
    RecoveredState got;
    fs.armReadFail();
    EXPECT_THROW(store.open(&got), vfs::IoError);
    EXPECT_THROW(state.commit(store, 2), UsageError);

    const RecoveryReport rec = store.open(&got);
    EXPECT_FALSE(store.isPoisoned());
    EXPECT_TRUE(rec.recovered);
    EXPECT_EQ(composed(got), "good");
    state.commit(store, 2);  // the first commit after open(): the image
    DurableStore again(fs, "st", StoreOptions{8, "t"}, &reg);
    again.open(&got);
    EXPECT_EQ(composed(got), "good-bad");
    EXPECT_EQ(got.image, blob("good-bad"));
}

// ---------------------------------------------------------------------------
// Torn-write and bit-flip matrices: recovery from every WAL truncation and
// every single-byte corruption must yield a committed payload (or nothing,
// when no commit survives) — never a mixture, never an exception — and
// must write nothing.

class WalMatrix : public ::testing::Test {
protected:
    void SetUp() override {
        vfs::MemVfs fs(23);
        DurableStore store(fs, "st", StoreOptions{8, "m"}, &reg_);
        store.open();
        TextState state;  // an image frame, then three delta frames
        for (int i = 1; i <= 4; ++i) {
            state.append("payload-" + std::to_string(i) + ";");
            state.commit(store, static_cast<std::uint64_t>(i));
            committed_.push_back(state.text);
        }
        wal_ = fs.readFile(store.walPath());
        walPath_ = store.walPath();
    }

    /// Opens a store over a WAL image and asserts the recovery contract.
    void checkImage(const Bytes& image, const char* what, std::size_t at) {
        obs::Registry reg;
        vfs::MemVfs fs(29);
        fs.writeFile(walPath_, view(image));
        fs.sync(walPath_);
        const std::uint64_t ops = fs.opCount();
        DurableStore store(fs, "st", StoreOptions{8, "m"}, &reg);
        RecoveryReport rec;
        RecoveredState got;
        ASSERT_NO_THROW(rec = store.open(&got)) << what << " at " << at;
        EXPECT_EQ(fs.opCount(), ops) << what << " at " << at << ": open() wrote";
        // A second open() over the same bytes recovers the same state.
        DurableStore twice(fs, "st", StoreOptions{8, "m"}, &reg);
        RecoveredState again;
        twice.open(&again);
        EXPECT_EQ(again, got) << what << " at " << at;
        EXPECT_EQ(fs.opCount(), ops) << what << " at " << at << ": open() wrote";
        if (rec.recovered) {
            const std::uint64_t meta = got.meta;
            ASSERT_GE(meta, 1u) << what << " at " << at;
            ASSERT_LE(meta, committed_.size()) << what << " at " << at;
            EXPECT_EQ(composed(got), committed_[meta - 1])
                << what << " at " << at << ": recovered a mixture state";
        }
        // The store is usable as it stands: the next commit replaces the
        // WAL, leaves it alone in the directory, and survives the next
        // recovery.
        TextState fresh;
        fresh.append("fresh");
        ASSERT_NO_THROW(fresh.commit(store, 99)) << what << " at " << at;
        EXPECT_EQ(fs.listDir("st"), kOnlyTheWal) << what << " at " << at;
        DurableStore third(fs, "st", StoreOptions{8, "m"}, &reg);
        third.open(&got);
        EXPECT_EQ(composed(got), "fresh") << what << " at " << at;
    }

    obs::Registry reg_;
    std::vector<std::string> committed_;
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
    // An image commit that dies before its rename leaves the new image in
    // wal.tmp (absent, torn or whole), never at the commit point: recovery
    // reads the older WAL whole, even with a corrupt leftover beside it,
    // writes nothing, and the next commit replaces both files. Crash at
    // every operation of the fold in turn.
    const std::string tmp = vfs::joinPath("st", "wal.tmp");
    std::uint64_t crashes = 0;
    for (std::uint64_t k = 0;; ++k) {
        obs::Registry reg;
        vfs::MemVfs fs(31);
        DurableStore store(fs, "st", StoreOptions{2, "t"}, &reg);
        TextState state;
        store.open();
        for (const char* v : {"a", "b"}) {  // image, delta
            state.append(v);
            state.commit(store, store.latestLsn() + 1);
        }
        const Bytes older = fs.readFile(store.walPath());
        fs.armCrashAt(fs.opCount() + k);
        state.append("c");
        try {
            state.commit(store, 3);  // finds two frames: an image commit
        } catch (const vfs::CrashInjected&) {
            ++crashes;
            if (fs.exists(tmp)) {  // the leftover image rots as well
                Bytes leftover = fs.readFile(tmp);
                if (!leftover.empty()) leftover[leftover.size() / 2] ^= 0xff;
                fs.writeFile(tmp, view(leftover));
                fs.sync(tmp);
            }
            const std::uint64_t ops = fs.opCount();
            DurableStore again(fs, "st", StoreOptions{2, "t"}, &reg);
            RecoveredState got;
            const RecoveryReport rec = again.open(&got);
            ASSERT_TRUE(rec.recovered) << "crash at fold op " << k;
            EXPECT_EQ(rec.tornBytesDiscarded, 0u) << "crash at fold op " << k;
            EXPECT_EQ(composed(got), "ab") << "crash at fold op " << k;
            EXPECT_EQ(got.lsn, 2u) << "crash at fold op " << k;
            EXPECT_EQ(fs.opCount(), ops) << "crash at fold op " << k << ": open() wrote";
            EXPECT_EQ(fs.readFile(again.walPath()), older) << "crash at fold op " << k;

            state.commit(again, 3);  // the first commit after open(): the image
            EXPECT_EQ(fs.listDir("st"), kOnlyTheWal) << "crash at fold op " << k;
            DurableStore third(fs, "st", StoreOptions{2, "t"}, &reg);
            third.open(&got);
            EXPECT_EQ(got.image, blob("abc")) << "crash at fold op " << k;
            EXPECT_TRUE(got.deltas.empty()) << "crash at fold op " << k;
            EXPECT_EQ(got.lsn, 3u) << "crash at fold op " << k;
            continue;
        }
        break;  // the fold's operations are exhausted: it committed
    }
    EXPECT_EQ(crashes, 3u);  // write wal.tmp, sync it, rename it over wal.log
}

TEST(DurableStore, CorruptCheckpointOrphansTheDeltasWrittenAfterIt) {
    // What a corrupt image frame costs: every state the WAL holds. The
    // image commit that wrote it dropped the older frames, and the deltas
    // behind it have nothing to apply to. Recovery writes nothing, and the
    // next commit (an image) replaces the file and survives.
    obs::Registry reg;
    vfs::MemVfs fs(37);
    DurableStore store(fs, "st", StoreOptions{2, "t"}, &reg);
    TextState state;
    store.open();
    for (const char* v : {"a", "b", "c", "d"}) {  // image, delta, image at 3, delta
        state.append(v);
        state.commit(store, store.latestLsn() + 1);
    }
    Bytes wal = fs.readFile(store.walPath());
    wal[22] ^= 0xff;  // inside the image frame's payload ("abc")
    fs.writeFile(store.walPath(), view(wal));
    fs.sync(store.walPath());

    const std::uint64_t ops = fs.opCount();
    DurableStore again(fs, "st", StoreOptions{2, "t"}, &reg);
    RecoveredState got;
    const RecoveryReport rec = again.open(&got);
    EXPECT_FALSE(rec.recovered);
    EXPECT_EQ(got, RecoveredState{});
    EXPECT_EQ(rec.corruptRecordsDiscarded, 1u);
    EXPECT_EQ(rec.tornBytesDiscarded, wal.size());  // the delta behind it too
    EXPECT_EQ(again.latestLsn(), 0u);
    EXPECT_EQ(fs.opCount(), ops);
    EXPECT_EQ(fs.readFile(store.walPath()), wal);  // left as found

    TextState fresh;
    fresh.append("fresh");
    fresh.commit(again, 7);
    EXPECT_EQ(fs.listDir("st"), kOnlyTheWal);
    DurableStore third(fs, "st", StoreOptions{2, "t"}, &reg);
    const RecoveryReport rec3 = third.open(&got);
    ASSERT_TRUE(rec3.recovered);
    EXPECT_EQ(rec3.tornBytesDiscarded, 0u);
    EXPECT_EQ(composed(got), "fresh");
    EXPECT_EQ(got.meta, 7u);
    EXPECT_EQ(got.lsn, 1u);
}

// ---------------------------------------------------------------------------
// Recovered state equals the live state after every round, over the crash
// sweep's adversarial worlds: checkpointEvery 8, so a chain reaches seven
// deltas on top of its image, and the store stays one file of at most eight
// frames.

TEST(DeltaChain, RecoveredStateEqualsTheLiveStateAfterEveryRound) {
    constexpr std::uint32_t kRounds = 30;
    std::size_t longestChain = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        obs::Registry reg;
        sim::RandomScheduleDriver driver(sim::worldConfig(seed, 0.15, kRounds));
        RepositorySource honest(driver.repo());
        sim::MemberProcess alice("chain", driver.trustAnchors(), honest, 2, &reg, nullptr);
        const StoreOptions options{8, "chain"};
        const vfs::MemVfs* fs = alice.attachStore(nullptr, "state", options, seed);
        for (std::uint32_t r = 0; r < kRounds; ++r) {
            const Time now = static_cast<Time>(r);
            if (r > 0) driver.step(now);
            alice.engine().syncRound(now);

            vfs::MemVfs copy = *fs;
            EXPECT_EQ(copy.listDir("state"), kOnlyTheWal) << "seed " << seed << " round " << r;
            obs::Registry secondRegistry;
            DurableStore second(copy, "state", options, &secondRegistry);
            RecoveredState got;
            const RecoveryReport rec = second.open(&got);
            ASSERT_TRUE(rec.recovered) << "seed " << seed << " round " << r;
            EXPECT_EQ(rec.tornBytesDiscarded, 0u);  // the chain is the whole WAL
            EXPECT_LE(rec.walRecordsReplayed, options.checkpointEvery);
            EXPECT_EQ(got.meta, r + 1u);
            const rp::RelyingParty composedRp = rp::RelyingParty::restore(got, &secondRegistry);
            ASSERT_EQ(composedRp.serializeState(), alice.rp().serializeState())
                << "seed " << seed << " round " << r << " (" << got.deltas.size() << " deltas)";
            longestChain = std::max(longestChain, got.deltas.size());
        }
    }
    EXPECT_EQ(longestChain, 7u);
}

// ---------------------------------------------------------------------------
// What the store writes per round: rc_store_wal_bytes_total (delta frames)
// and rc_store_checkpoint_bytes_total (image frames), pinned for one
// fixed-seed world.

struct StoreBytes {
    std::uint64_t wal = 0;
    std::uint64_t checkpoint = 0;
    bool operator==(const StoreBytes&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StoreBytes& b) {
    return os << "{" << b.wal << ", " << b.checkpoint << "}";
}

StoreBytes storeBytes(obs::Registry& reg, const std::string& name) {
    const obs::Labels labels = {{"store", name}};
    return {reg.counter("rc_store_wal_bytes_total", "", labels).value(),
            reg.counter("rc_store_checkpoint_bytes_total", "", labels).value()};
}

TEST(StoreWork, BytesWrittenPerRoundArePinnedForAFixedWorld) {
    constexpr std::uint32_t kRounds = 18;
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(5, 0.15, kRounds));
    RepositorySource honest(driver.repo());
    sim::MemberProcess alice("work", driver.trustAnchors(), honest, 2, &reg, nullptr);
    alice.attachStore(nullptr, "state", StoreOptions{8, "work"}, 5);
    std::vector<StoreBytes> perRound;
    std::vector<std::size_t> imageBytes;
    for (std::uint32_t r = 0; r < kRounds; ++r) {
        const StoreBytes before = storeBytes(reg, "work");
        if (r > 0) driver.step(static_cast<Time>(r));
        alice.engine().syncRound(static_cast<Time>(r));
        const StoreBytes after = storeBytes(reg, "work");
        perRound.push_back({after.wal - before.wal, after.checkpoint - before.checkpoint});
        imageBytes.push_back(alice.rp().serializeState().size());
    }
    const std::vector<StoreBytes> expected = {
        {0, 31585}, {5276, 0}, {7954, 0},  {5376, 0}, {20742, 0}, {2762, 0},
        {18382, 0}, {13108, 0}, {0, 47419}, {117, 0}, {15614, 0}, {2762, 0},
        {117, 0},   {13108, 0}, {117, 0},   {18158, 0}, {0, 49329}, {117, 0},
    };
    EXPECT_EQ(perRound, expected);
    // An image commit (the first after open(), then each commit that finds
    // eight frames in the WAL: rounds 0, 8 and 16) writes the image behind
    // the 53-byte frame header and digest; every other round appends a
    // delta, smaller than the image.
    for (std::uint32_t r = 0; r < kRounds; ++r) {
        const bool image = r % 8 == 0;
        EXPECT_EQ(perRound[r].checkpoint, image ? imageBytes[r] + 53 : 0u) << "round " << r;
        if (image) {
            EXPECT_EQ(perRound[r].wal, 0u) << "round " << r;
        } else {
            EXPECT_LT(perRound[r].wal, imageBytes[r] / 2) << "round " << r;
        }
    }
}

TEST(StoreWork, ARoundThatChangesNothingAppendsUnder128Bytes) {
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(9, 0.0, 4));
    RepositorySource honest(driver.repo());
    sim::MemberProcess alice("idle", driver.trustAnchors(), honest, 2, &reg, nullptr);
    alice.attachStore(nullptr, "state", StoreOptions{8, "idle"}, 9);
    alice.engine().syncRound(0);
    driver.step(1);
    alice.engine().syncRound(1);
    // The world stands still: the same snapshot synced again.
    const StoreBytes before = storeBytes(reg, "idle");
    alice.engine().syncRound(2);
    const StoreBytes after = storeBytes(reg, "idle");
    EXPECT_LT(after.wal - before.wal, 128u);
    EXPECT_GT(after.wal - before.wal, 0u);
    EXPECT_EQ(after.checkpoint, before.checkpoint);
}

// ---------------------------------------------------------------------------
// What a round costs a relying party and its engine: files the probe hashed
// or compared (rc_sync_probe_files_total), manifests and objects decoded,
// and signatures verified (rc_rp_*). An unchanged point costs a comparison.

struct SyncWork {
    std::uint64_t hashed = 0;
    std::uint64_t compared = 0;
    std::uint64_t manifests = 0;
    std::uint64_t objects = 0;
    std::uint64_t signatures = 0;
    bool operator==(const SyncWork&) const = default;
    SyncWork operator-(const SyncWork& o) const {
        return {hashed - o.hashed, compared - o.compared, manifests - o.manifests,
                objects - o.objects, signatures - o.signatures};
    }
};

std::ostream& operator<<(std::ostream& os, const SyncWork& w) {
    return os << "{" << w.hashed << ", " << w.compared << ", " << w.manifests << ", " << w.objects
              << ", " << w.signatures << "}";
}

SyncWork syncWork(obs::Registry& reg, const std::string& rp) {
    const auto count = [&](const char* name, obs::Labels labels) {
        return reg.counter(name, "", labels).value();
    };
    return {count("rc_sync_probe_files_total", {{"rp", rp}, {"how", "hashed"}}),
            count("rc_sync_probe_files_total", {{"rp", rp}, {"how", "compared"}}),
            count("rc_rp_manifests_decoded_total", {{"rp", rp}}),
            count("rc_rp_objects_decoded_total", {{"rp", rp}}),
            count("rc_rp_signatures_verified_total", {{"rp", rp}})};
}

TEST(SyncWork, AnIdleRoundHashesDecodesAndVerifiesNothing) {
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(9, 0.0, 4));
    RepositorySource honest(driver.repo());
    sim::MemberProcess alice("idle", driver.trustAnchors(), honest, 2, &reg, nullptr);
    alice.attachStore(nullptr, "state", StoreOptions{8, "idle"}, 9);
    alice.engine().syncRound(0);
    driver.step(1);
    alice.engine().syncRound(1);
    // The world stands still: the same snapshot synced again.
    const SyncWork before = syncWork(reg, "idle");
    alice.engine().syncRound(2);
    const SyncWork idle = syncWork(reg, "idle") - before;
    std::uint64_t logged = 0;
    for (const auto& claim : alice.rp().exportManifestClaims()) {
        const auto held = alice.rp().heldPoint(claim.pointUri);
        ASSERT_TRUE(held.has_value()) << claim.pointUri;
        logged += held->manifest.entries.size();
    }
    EXPECT_EQ(idle, (SyncWork{0, logged, 0, 0, 0}));
    EXPECT_GT(logged, 0u);
}

TEST(SyncWork, PerRoundWorkIsPinnedForAFixedWorld) {
    // StoreWork's world: 18 rounds of seed 5. Rounds whose manifests all
    // stand still compare every logged file of the points the walk reaches
    // and decode nothing; from round 4 on it no longer reaches isp1's and
    // cust1's points, whose one logged file is then neither compared nor
    // hashed.
    constexpr std::uint32_t kRounds = 18;
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(5, 0.15, kRounds));
    RepositorySource honest(driver.repo());
    sim::MemberProcess alice("work", driver.trustAnchors(), honest, 2, &reg, nullptr);
    alice.attachStore(nullptr, "state", StoreOptions{8, "work"}, 5);
    std::vector<SyncWork> perRound;
    for (std::uint32_t r = 0; r < kRounds; ++r) {
        const SyncWork before = syncWork(reg, "work");
        if (r > 0) driver.step(static_cast<Time>(r));
        alice.engine().syncRound(static_cast<Time>(r));
        perRound.push_back(syncWork(reg, "work") - before);
    }
    const std::vector<SyncWork> expected = {
        {3, 0, 8, 6, 4},  {1, 3, 2, 2, 1},  {0, 4, 2, 6, 1},  {0, 4, 2, 3, 1},  {2, 2, 2, 8, 3},
        {0, 3, 2, 1, 1},  {1, 3, 4, 11, 4}, {0, 4, 2, 12, 3}, {0, 4, 0, 0, 0},  {0, 4, 0, 0, 0},
        {1, 4, 2, 14, 3}, {0, 5, 2, 0, 1},  {0, 5, 0, 0, 0},  {0, 4, 2, 13, 3}, {0, 4, 0, 0, 0},
        {1, 3, 2, 10, 4}, {0, 4, 0, 0, 0},  {0, 4, 0, 0, 0},
    };
    EXPECT_EQ(perRound, expected);
}

TEST(SyncWork, ARestartRunsColdOnceThenDropsBack) {
    // Nothing the shortcuts use is persisted: the restore decodes what the
    // store holds and rebuilds the views, and the first round after it
    // hashes every logged file of the points the walk reaches, and decodes
    // (the probe's and sync's) and verifies every reached manifest. From
    // the next round on, the restarted relying party costs what its
    // uninterrupted twin does. Neither fetches the two points (isp1's and
    // cust1's) the walk no longer reaches.
    constexpr std::uint32_t kRounds = 12;
    constexpr std::uint32_t kRestartAt = 7;
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(5, 0.15, kRounds));
    RepositorySource honest(driver.repo());
    sim::MemberProcess alice("restarted", driver.trustAnchors(), honest, 2, &reg, nullptr);
    sim::MemberProcess twin("twin", driver.trustAnchors(), honest, 2, &reg, nullptr);
    alice.attachStore(nullptr, "state", StoreOptions{8, "restarted"}, 5);
    for (std::uint32_t r = 0; r < kRounds; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        if (r > 0) driver.step(static_cast<Time>(r));
        if (r == kRestartAt) {
            const SyncWork before = syncWork(reg, "restarted");
            ASSERT_TRUE(alice.restart().ok());
            EXPECT_EQ(syncWork(reg, "restarted") - before, (SyncWork{0, 0, 11, 19, 0}));
        }
        const SyncWork aliceBefore = syncWork(reg, "restarted");
        alice.engine().syncRound(static_cast<Time>(r));
        const SyncWork aliceWork = syncWork(reg, "restarted") - aliceBefore;
        const SyncWork twinBefore = syncWork(reg, "twin");
        const rp::SyncReport twinReport = twin.engine().syncRound(static_cast<Time>(r));
        const SyncWork twinWork = syncWork(reg, "twin") - twinBefore;
        if (r != kRestartAt) {
            EXPECT_EQ(aliceWork, twinWork);
            continue;
        }
        EXPECT_EQ(twinReport.pointsDelivered, 3u);
        EXPECT_EQ(twinReport.pointsListed, 5u);
        EXPECT_EQ(aliceWork.hashed, twinWork.hashed + twinWork.compared);
        EXPECT_EQ(aliceWork.compared, 0u);
        EXPECT_EQ(aliceWork.manifests, 2 * twinReport.pointsDelivered);
        EXPECT_EQ(aliceWork.objects, twinWork.objects);
        EXPECT_EQ(aliceWork, (SyncWork{4, 0, 6, 12, 5}));
        EXPECT_EQ(twinWork, (SyncWork{0, 4, 2, 12, 3}));
    }
    EXPECT_EQ(alice.rp().roaState(), twin.rp().roaState());
}

/// Records the (point, round) of every fetchPoint call.
class CountingSource final : public SnapshotSource {
public:
    explicit CountingSource(SnapshotSource& inner) : inner_(inner) {}
    std::vector<std::string> listPoints(std::uint64_t round) override {
        return inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override {
        fetched.insert({pointUri, round});
        return inner_.fetchPoint(pointUri, round, attempt);
    }
    std::set<std::pair<std::string, std::uint64_t>> fetched;

private:
    SnapshotSource& inner_;
};

TEST(SyncWork, PointsTheWalkNoLongerReachesAreNotFetched) {
    // The seed-5 world's isp1 loses its RC, and cust1 with it. The source
    // still lists both points, but from the round after their RCs stop
    // being valid the walk does not reach them, so nothing fetches them.
    constexpr std::uint32_t kRounds = 12;
    obs::Registry reg;
    sim::RandomScheduleDriver driver(sim::worldConfig(5, 0.15, kRounds));
    RepositorySource honest(driver.repo());
    CountingSource counting(honest);
    sim::MemberProcess alice("walk", driver.trustAnchors(), counting, 2, &reg, nullptr);
    std::map<std::string, std::string> pointOf;  // RC uri -> its point
    for (const char* name : {"isp1", "cust1"}) {
        const ResourceCert& cert = driver.directory().get(name).cert();
        pointOf[cert.uri] = cert.pubPointUri;
    }
    std::set<std::string> unreached;
    std::uint64_t checked = 0;
    for (std::uint32_t r = 0; r < kRounds; ++r) {
        SCOPED_TRACE("round " + std::to_string(r));
        if (r > 0) driver.step(static_cast<Time>(r));
        alice.engine().syncRound(static_cast<Time>(r));
        const std::vector<std::string> listed = honest.listPoints(r);
        for (const std::string& point : unreached) {
            EXPECT_NE(std::find(listed.begin(), listed.end(), point), listed.end()) << point;
            EXPECT_EQ(counting.fetched.count({point, r}), 0u) << point;
            ++checked;
        }
        for (const auto& [uri, point] : pointOf) {
            const rp::RcRecord* rec = alice.rp().findRc(uri);
            ASSERT_NE(rec, nullptr) << uri;
            if (rec->status != rp::RcStatus::Valid) unreached.insert(point);
        }
    }
    EXPECT_EQ(unreached.size(), 2u);
    EXPECT_GE(checked, 4u);
}

// ---------------------------------------------------------------------------
// Exhaustive crash sweep (tentpole proof; see sim/crash_sweep.hpp)

TEST(CrashSweep, EveryVfsOperationIsASafeCrashPoint) {
    // checkpointEvery 2 crashes inside an image commit every other round;
    // 5 with 8 rounds crashes inside a chain of up to four deltas. An image
    // commit takes three operations (write, sync, rename), a delta two
    // (append, sync). Each commit ends at its commit point, so a crash at
    // the operation after one fires in the next round and recovers that
    // round's pre-commit state; recoveredPost counts only tears that kept
    // a whole unsynced delta frame. A crash inside the first image commit
    // recovers nothing.
    for (const auto& [rounds, every, points] :
         {std::tuple{6u, 2u, 15u}, std::tuple{8u, 5u, 18u}}) {
        sim::SweepConfig cfg;
        cfg.seed = 5;
        cfg.rounds = rounds;
        cfg.checkpointEvery = every;
        const sim::SweepResult r = sim::runCrashSweep(cfg);
        for (const auto& v : r.violations) ADD_FAILURE() << v;
        EXPECT_TRUE(r.passed) << "checkpointEvery " << every;
        EXPECT_EQ(r.crashPoints, points);
        EXPECT_EQ(r.crashesFired, r.crashPoints);
        EXPECT_EQ(r.recoveredPre + r.recoveredPost + r.recoveredNone, r.crashesFired);
        EXPECT_GT(r.recoveredPre, 0u);
        EXPECT_EQ(r.recoveredNone, 3u);
    }
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
