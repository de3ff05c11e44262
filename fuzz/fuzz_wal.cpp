// Fuzz driver for the durable store's recovery path (rp/durable_store).
// The input is an arbitrary on-disk image planted under the store
// directory before open() runs. Oracle: *recover -> re-commit -> recover
// idempotence*.
//
//   1. open() must never throw on an arbitrary image — a torn or corrupt
//      WAL/checkpoint is, by definition, what a crash leaves behind, and
//      recovery's contract is to classify it, not to die on it;
//   2. a second open() over the same bytes recovers the identical
//      (payload, meta, lsn) triple, even when the first open() repaired
//      the directory (repair folds state, it must not change it);
//   3. commit() of a probe payload after recovery succeeds and advances
//      the LSN past whatever was recovered;
//   4. a final open() recovers exactly the probe — fresh commits are never
//      swallowed by whatever garbage preceded them.
//
// Input layout: byte 0 selects where the remaining bytes land
// (0 = wal.log, 1 = a checkpoint file, 2 = both, 3 = split across both),
// so the fuzzer reaches the WAL scanner and the checkpoint loader with
// the same corpus. The seeds (fuzz/seed_corpus.cpp sampleWalImages) are
// real WAL images produced by driving a DurableStore, mode byte included.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/obs.hpp"
#include "rp/durable_store.hpp"
#include "util/bytes.hpp"
#include "util/vfs.hpp"

namespace rpkic::fuzz {
namespace {

[[noreturn]] void fail(const char* what) {
    std::fprintf(stderr, "fuzz_wal: oracle violated: %s\n", what);
    std::abort();
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    const std::string dir = "st";
    vfs::MemVfs fs(/*tornSeed=*/20140817);
    obs::Registry registry;
    fs.makeDir(dir);

    // Route the input onto the store directory.
    std::uint8_t mode = 0;
    ByteView image(data, 0);
    if (size > 0) {
        mode = static_cast<std::uint8_t>(data[0] & 0x3);
        image = ByteView(data + 1, size - 1);
    }
    switch (mode) {
        case 0:
            fs.writeFile(dir + "/wal.log", image);
            break;
        case 1:
            fs.writeFile(dir + "/ckpt-0000000000000001.bin", image);
            break;
        case 2:
            fs.writeFile(dir + "/wal.log", image);
            fs.writeFile(dir + "/ckpt-0000000000000001.bin", image);
            break;
        default: {
            const std::size_t half = image.size() / 2;
            fs.writeFile(dir + "/ckpt-00000000000000a0.bin", ByteView(image.data(), half));
            fs.writeFile(dir + "/wal.log",
                         ByteView(image.data() + half, image.size() - half));
            break;
        }
    }

    rp::StoreOptions opts;
    opts.checkpointEvery = 2;
    opts.name = "fuzzwal";

    // 1. Recovery never throws, and an empty recovery means LSN 0.
    std::optional<Bytes> recovered;
    std::uint64_t recoveredMeta = 0;
    std::uint64_t recoveredLsn = 0;
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        try {
            store.open();
        } catch (...) {
            fail("open() threw on an arbitrary image");
        }
        recovered = store.latest();
        recoveredMeta = store.latestMeta();
        recoveredLsn = store.latestLsn();
        if (!recovered.has_value() && recoveredLsn != 0)
            fail("no payload recovered but the LSN is nonzero");
        if (recovered.has_value() && recoveredLsn == 0)
            fail("payload recovered at LSN 0 (LSNs start at 1)");
    }

    // 2./3. Re-recovery is idempotent; a probe commit lands after it.
    Bytes probe;
    const std::size_t take = std::min<std::size_t>(size, 64);
    for (std::size_t i = 0; i < take; ++i)
        probe.push_back(static_cast<std::uint8_t>(data[i] ^ 0x5a));
    probe.push_back(static_cast<std::uint8_t>(size & 0xff));
    const std::uint64_t probeMeta = recoveredMeta + 7;
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        try {
            store.open();
        } catch (...) {
            fail("second open() threw over the recovered image");
        }
        if (store.latest() != recovered) fail("re-recovery changed the payload");
        if (store.latestMeta() != recoveredMeta) fail("re-recovery changed the meta");
        if (store.latestLsn() != recoveredLsn) fail("re-recovery changed the LSN");
        try {
            store.commit(probe, probeMeta);
        } catch (...) {
            fail("commit() after recovery threw");
        }
        if (store.latestLsn() <= recoveredLsn) fail("commit did not advance the LSN");
    }

    // 4. The final recovery sees exactly the probe.
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        try {
            store.open();
        } catch (...) {
            fail("open() after the probe commit threw");
        }
        if (!store.latest().has_value()) fail("probe commit lost across recovery");
        if (*store.latest() != probe) fail("probe payload corrupted across recovery");
        if (store.latestMeta() != probeMeta) fail("probe meta lost across recovery");
        if (store.latestLsn() <= recoveredLsn) fail("probe LSN regressed across recovery");
    }
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
