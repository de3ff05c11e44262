// rpkic-audit: runs the REDESIGNED RPKI's relying party (§5.4 + Appendix
// B) over a sequence of on-disk repository snapshots, printing every alarm
// with its accountability verdict.
//
//   rpkic-audit --ta TA_FILE [--cache DIR] SNAP_DIR0 [SNAP_DIR1 ...]
//
// Each SNAP_DIR is a repository state (as written by rpkic-demo --consent
// or writeSnapshotToDisk); the relying party syncs them in order, running
// the full local consistency checks — hash-chain verification,
// intermediate-state reconstruction, Table-10 procedures, consent checks.
//
// With --cache, the relying party's state lives in a durable store in DIR
// (rp/durable_store.hpp), so successive invocations keep detecting
// transitions across runs; a resumed relying party numbers its snapshots
// from the day after its last sync, so its §5.4 windows keep running
// across invocations:
//
//   rpkic-audit --ta ta.cer --cache rp-cache todays-snapshot/
//
// A DIR that does not exist is created, and one that holds no wal.log
// starts fresh. The save is the store's image commit: it writes
// DIR/wal.tmp, fsyncs it and renames it over DIR/wal.log, so a crash or a
// full disk mid-write leaves the previous cache intact. These are refused
// before any snapshot is synced: a wal.log that is torn or fails its
// digest (resuming from less than the whole history could mask a
// unilateral revocation), a DIR that cannot be a directory, a --ta file
// that does not parse, and a resumed cache whose trust anchors are not
// exactly the --ta set.
//
// Exit status: 0 = no alarms, 2 = alarms raised, 1 = usage/IO error.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rpki/fs_repository.hpp"
#include "util/errors.hpp"
#include "util/vfs.hpp"

using namespace rpkic;

int main(int argc, char** argv) {
    std::vector<std::string> snapDirs;
    std::vector<std::string> taPaths;
    std::string cacheDir;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--ta" && i + 1 < argc) {
            taPaths.push_back(argv[++i]);
        } else if (arg == "--cache" && i + 1 < argc) {
            cacheDir = argv[++i];
        } else {
            snapDirs.push_back(arg);
        }
    }
    if (taPaths.empty() || snapDirs.empty()) {
        std::fprintf(stderr,
                     "usage: rpkic-audit --ta TA_FILE [--cache DIR] SNAP_DIR0 [SNAP_DIR1 ...]\n");
        return 1;
    }

    try {
        std::vector<ResourceCert> tas;
        for (const auto& path : taPaths) tas.push_back(readTrustAnchorFile(path));
        vfs::DiskVfs disk;
        std::optional<rp::DurableStore> store;
        std::optional<rp::RelyingParty> alice;
        if (!cacheDir.empty()) {
            if (disk.exists(cacheDir)) {
                throw UsageError("cache " + cacheDir +
                                 " is a file; --cache names a store directory");
            }
            disk.makeDir(cacheDir);
            store.emplace(disk, cacheDir, rp::StoreOptions{.name = "audit"});
            rp::RecoveredState saved;
            const rp::RecoveryReport report = store->open(&saved);
            if (report.tornBytesDiscarded > 0 || report.corruptRecordsDiscarded > 0) {
                throw ParseError("cache " + store->walPath() + " is damaged (" +
                                 report.summary() + ")");
            }
            if (report.recovered) {
                alice.emplace(rp::RelyingParty::restore(saved));
                const auto encoded = [](const std::vector<ResourceCert>& certs) {
                    std::vector<Bytes> out;
                    for (const ResourceCert& c : certs) out.push_back(c.encode());
                    return out;
                };
                const std::vector<Bytes> cached = encoded(alice->trustAnchors());
                const std::vector<Bytes> given = encoded(tas);
                if (cached.size() != given.size() ||
                    !std::is_permutation(cached.begin(), cached.end(), given.begin())) {
                    throw UsageError("cache " + cacheDir +
                                     " was built from other trust anchors than --ta names");
                }
                std::printf("resumed from cache %s (%zu-byte image)\n", cacheDir.c_str(),
                            saved.image.size());
            }
        }
        const bool resumed = alice.has_value();
        if (!resumed) {
            alice.emplace("auditor", tas,
                          rp::RpOptions{.ts = static_cast<Duration>(snapDirs.size() + 2),
                                        .tg = static_cast<Duration>(2 * snapDirs.size() + 4)});
        }

        std::size_t reported = alice->alarms().count();
        Time day = resumed ? alice->lastSyncTime() + 1 : 0;
        for (std::size_t i = 0; i < snapDirs.size(); ++i, ++day) {
            const Snapshot snap = readSnapshotFromDisk(snapDirs[i]);
            alice->sync(snap, day);
            std::printf("[%lld] %-30s %zu points, %zu valid ROAs\n",
                        static_cast<long long>(day), snapDirs[i].c_str(), snap.points.size(),
                        alice->validRoas().size());
            for (; reported < alice->alarms().count(); ++reported) {
                std::printf("    ALARM %s\n", alice->alarms().all()[reported].str().c_str());
            }
        }

        if (store.has_value()) {
            // The first commit after open() is an image commit.
            const Bytes image = alice->serializeState();
            store->commit({[&] { return image; }, [&] { return alice->serializeDelta(); }},
                          static_cast<std::uint64_t>(alice->lastSyncTime()));
            std::printf("saved cache %s (%zu-byte image)\n", cacheDir.c_str(), image.size());
        }
        std::printf("\n%zu alarm(s) total\n", alice->alarms().count());
        return alice->alarms().count() == 0 ? 0 : 2;
    } catch (const Error& e) {
        std::fprintf(stderr, "rpkic-audit: %s\n", e.what());
        return 1;
    }
}
