// Fuzz driver for the durable store's recovery path (rp/durable_store).
// The input is the bytes of wal.log, planted under the store directory
// before open() runs. Oracle: *recover -> re-commit -> recover
// idempotence* over what recovery returns — (image, deltas, meta, lsn):
//
//   1. open() must never throw on arbitrary bytes — a torn or corrupt WAL
//      is, by definition, what a crash leaves behind, and recovery's
//      contract is to classify it, not to die on it;
//   2. open() issues no mutating VFS operation, and a second open() over
//      the same bytes recovers the identical (image, deltas, meta, lsn);
//   3. after recovery the store asks for an image first (never a delta)
//      and then for a delta; both commits succeed, advance the LSN, and
//      leave wal.log alone in the directory (a leftover wal.tmp included);
//   4. a final open() recovers exactly the probe state — fresh commits are
//      never swallowed by whatever garbage preceded them. The probe's
//      "state" is its bytes, and a delta appends: composing image + deltas
//      must give image || delta.
//
// Input layout: byte 0 is a flag byte; with its low bit set the remaining
// bytes are also planted as a leftover wal.tmp, as a crash inside an image
// commit leaves it. The rest is wal.log. The seeds (fuzz/seed_corpus.cpp
// sampleWalImages) are real WAL images produced by driving a DurableStore,
// flag byte included.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

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

Bytes compose(const rp::RecoveredState& state) {
    Bytes out = state.image;
    for (const Bytes& d : state.deltas) out.insert(out.end(), d.begin(), d.end());
    return out;
}

void fuzzOne(const std::uint8_t* data, std::size_t size) {
    const std::string dir = "st";
    vfs::MemVfs fs(/*tornSeed=*/20140817);
    obs::Registry registry;

    // Plant the input under the store directory.
    const ByteView wal = size > 0 ? ByteView(data + 1, size - 1) : ByteView(data, 0);
    fs.writeFile(dir + "/wal.log", wal);
    if (size > 0 && (data[0] & 0x1) != 0) fs.writeFile(dir + "/wal.tmp", wal);
    const std::uint64_t plantedOps = fs.opCount();

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
    if (fs.opCount() != plantedOps) fail("open() issued a mutating VFS operation");

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
        if (fs.opCount() != plantedOps) fail("open() issued a mutating VFS operation");
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
        if (fs.listDir(dir) != std::vector<std::string>{"wal.log"})
            fail("the store directory holds more than wal.log after a commit");
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
