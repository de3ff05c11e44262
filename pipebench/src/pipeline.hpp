// The relying-party half of a round, wired from the tree's public APIs:
// SnapshotSource -> rp::SyncEngine (probe, RelyingParty::sync,
// DurableStore::commit over MemVfs) -> EpochSink. Layers are measured
// from outside only: decorators on the SnapshotSource and vfs::Vfs
// interfaces, a timed EpochSink, and the rc_* registry families the
// engine, relying party and store already maintain.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rp/durable_store.hpp"
#include "rp/relying_party.hpp"
#include "rp/sync_engine.hpp"
#include "rpki/chaos.hpp"
#include "util/vfs.hpp"

namespace pipebench {

using namespace rpkic;

/// Fails a seeded share of first fetch attempts (transient faults the
/// engine's retry heals); later attempts always pass through.
class FlakySource final : public SnapshotSource {
public:
    FlakySource(SnapshotSource& inner, std::uint64_t seed, unsigned perMille)
        : inner_(inner), seed_(seed), perMille_(perMille) {}
    std::vector<std::string> listPoints(std::uint64_t round) override {
        return inner_.listPoints(round);
    }
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override;

private:
    SnapshotSource& inner_;
    std::uint64_t seed_;
    unsigned perMille_;
};

/// Times every call into the wrapped source and counts what it returned.
class TimedSource final : public SnapshotSource {
public:
    explicit TimedSource(SnapshotSource& inner) : inner_(inner) {}
    std::vector<std::string> listPoints(std::uint64_t round) override;
    std::optional<FileMap> fetchPoint(const std::string& pointUri, std::uint64_t round,
                                      std::uint32_t attempt) override;

    std::uint64_t nanos = 0;
    std::uint64_t pointsFetched = 0;
    std::uint64_t bytesFetched = 0;

private:
    SnapshotSource& inner_;
};

/// Counts what the durable store asks of its filesystem.
class CountingVfs final : public vfs::Vfs {
public:
    explicit CountingVfs(vfs::Vfs& inner) : inner_(inner) {}
    bool exists(const std::string& path) override { return inner_.exists(path); }
    Bytes readFile(const std::string& path) override { return inner_.readFile(path); }
    void writeFile(const std::string& path, ByteView data) override {
        bytesWritten += data.size();
        inner_.writeFile(path, data);
    }
    void appendFile(const std::string& path, ByteView data) override {
        bytesWritten += data.size();
        inner_.appendFile(path, data);
    }
    void sync(const std::string& path) override {
        ++syncs;
        inner_.sync(path);
    }
    void renameFile(const std::string& from, const std::string& to) override {
        inner_.renameFile(from, to);
    }
    void removeFile(const std::string& path) override { inner_.removeFile(path); }
    void makeDir(const std::string& dir) override { inner_.makeDir(dir); }
    std::vector<std::string> listDir(const std::string& dir) override {
        return inner_.listDir(dir);
    }

    std::uint64_t bytesWritten = 0;
    std::uint64_t syncs = 0;

private:
    vfs::Vfs& inner_;
};

/// One relying party with its engine, store and epoch sink.
class Pipeline {
public:
    Pipeline(const Repository& repo, const std::vector<ResourceCert>& trustAnchors,
             std::uint64_t seed, unsigned faultPerMille, obs::Registry& registry);
    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    /// One SyncEngine round at simulated time `now`.
    rp::SyncReport syncRound(Time now) { return engine_.syncRound(now); }

    /// The post-round ROA state the epoch sink received.
    const std::shared_ptr<const RpkiState>& state() const { return state_; }
    const rp::RelyingParty& relyingParty() const { return rp_; }

    TimedSource& source() { return timed_; }
    CountingVfs& vfs() { return vfs_; }
    std::uint64_t sinkNanos = 0;

private:
    RepositorySource base_;
    FlakySource flaky_;
    TimedSource timed_;
    rp::RelyingParty rp_;
    vfs::MemVfs mem_;
    CountingVfs vfs_;
    rp::DurableStore store_;
    rp::SyncEngine engine_;
    std::shared_ptr<const RpkiState> state_;
};

}  // namespace pipebench
