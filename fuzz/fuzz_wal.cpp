// Fuzz driver for the durable store's recovery path (rp/durable_store).
// The input is an arbitrary on-disk image planted under the store
// directory before open() runs. Oracle: *recover -> re-commit -> recover
// idempotence* over what recovery returns — (image, deltas, meta, lsn):
//
//   1. open() must never throw on an arbitrary image — a torn or corrupt
//      WAL/checkpoint is, by definition, what a crash leaves behind, and
//      recovery's contract is to classify it, not to die on it;
//   2. a second open() over the same bytes recovers the identical
//      (image, deltas, meta, lsn), even when the first open() repaired the
//      directory (repair removes garbage, it must not change the state);
//   3. after recovery the store asks for an image first (never a delta)
//      and then for a delta; both commits succeed and advance the LSN;
//   4. a final open() recovers exactly the probe state — fresh commits are
//      never swallowed by whatever garbage preceded them, whether or not
//      the second commit folded. The probe's "state" is its bytes, and a
//      delta appends: composing image + deltas must give image || delta.
//
// Input layout: byte 0 selects where the remaining bytes land
// (0 = wal.log, 1 = a checkpoint file, 2 = both, 3 = a checkpoint and
// the WAL: a big-endian u32 length, that many bytes planted as the
// checkpoint named by the seq its header carries, the rest as wal.log),
// so the fuzzer reaches the WAL scanner and the checkpoint loader with
// the same corpus. The seeds (fuzz/seed_corpus.cpp sampleWalImages) are
// real store images produced by driving a DurableStore, mode byte
// included.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
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

std::uint64_t readBe(const std::uint8_t* p, std::size_t n) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) v = (v << 8) | p[i];
    return v;
}

/// "ckpt-<16 hex digits>.bin" for `lsn`.
std::string checkpointFile(std::uint64_t lsn) {
    char name[32];
    std::snprintf(name, sizeof name, "ckpt-%016llx.bin", static_cast<unsigned long long>(lsn));
    return name;
}

Bytes compose(const rp::RecoveredState& state) {
    Bytes out = state.image;
    for (const Bytes& d : state.deltas) out.insert(out.end(), d.begin(), d.end());
    return out;
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
            fs.writeFile(dir + "/" + checkpointFile(1), image);
            break;
        case 2:
            fs.writeFile(dir + "/wal.log", image);
            fs.writeFile(dir + "/" + checkpointFile(1), image);
            break;
        default: {
            const std::size_t len =
                image.size() >= 4 ? std::min<std::size_t>(readBe(image.data(), 4), image.size() - 4)
                                  : 0;
            const ByteView ckpt = image.size() >= 4 ? image.subspan(4, len) : image;
            const std::uint64_t seq = ckpt.size() >= 16 ? readBe(ckpt.data() + 8, 8) : 0xa0;
            fs.writeFile(dir + "/" + checkpointFile(seq), ckpt);
            fs.writeFile(dir + "/wal.log", image.subspan(std::min(image.size(), 4 + len)));
            break;
        }
    }

    rp::StoreOptions opts;
    opts.checkpointEvery = 2;
    opts.name = "fuzzwal";

    // 1. Recovery never throws, and an empty recovery means LSN 0.
    rp::RecoveredState recovered;
    bool anything = false;
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        try {
            anything = store.open(&recovered).recovered;
        } catch (...) {
            fail("open() threw on an arbitrary image");
        }
        if (!anything && !(recovered == rp::RecoveredState{}))
            fail("nothing recovered but the recovered state is not empty");
        if (anything && recovered.lsn == 0) fail("state recovered at LSN 0 (LSNs start at 1)");
    }

    // 2./3. Re-recovery is idempotent; an image then a delta land after it.
    Bytes probe;
    const std::size_t take = std::min<std::size_t>(size, 64);
    for (std::size_t i = 0; i < take; ++i)
        probe.push_back(static_cast<std::uint8_t>(data[i] ^ 0x5a));
    probe.push_back(static_cast<std::uint8_t>(size & 0xff));
    const Bytes delta = {0xde, 0x17, static_cast<std::uint8_t>(size >> 8)};
    Bytes probeAfterDelta = probe;
    probeAfterDelta.insert(probeAfterDelta.end(), delta.begin(), delta.end());
    const std::uint64_t probeMeta = recovered.meta + 7;
    std::uint64_t probeLsn = 0;
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        rp::RecoveredState again;
        try {
            if (store.open(&again).recovered != anything) fail("re-recovery changed the verdict");
        } catch (...) {
            fail("second open() threw over the recovered image");
        }
        if (again.image != recovered.image) fail("re-recovery changed the image");
        if (again.deltas != recovered.deltas) fail("re-recovery changed the deltas");
        if (again.meta != recovered.meta) fail("re-recovery changed the meta");
        if (again.lsn != recovered.lsn) fail("re-recovery changed the LSN");
        try {
            store.commit({[&] { return probe; },
                          []() -> Bytes { fail("first commit after open() asked for a delta"); }},
                         probeMeta);
            store.commit({[&] { return probeAfterDelta; }, [&] { return delta; }}, probeMeta + 1);
        } catch (...) {
            fail("commit() after recovery threw");
        }
        probeLsn = store.latestLsn();
        if (probeLsn <= recovered.lsn + 1) fail("commits did not advance the LSN");
    }

    // 4. The final recovery composes to exactly the probe state.
    {
        rp::DurableStore store(fs, dir, opts, &registry);
        rp::RecoveredState last;
        try {
            if (!store.open(&last).recovered) fail("probe commits lost across recovery");
        } catch (...) {
            fail("open() after the probe commits threw");
        }
        if (compose(last) != probeAfterDelta) fail("probe state corrupted across recovery");
        if (last.meta != probeMeta + 1) fail("probe meta lost across recovery");
        if (last.lsn != probeLsn) fail("probe LSN lost across recovery");
    }
}

}  // namespace
}  // namespace rpkic::fuzz

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    rpkic::fuzz::fuzzOne(data, size);
    return 0;
}
