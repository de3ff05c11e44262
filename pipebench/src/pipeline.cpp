#include "pipeline.hpp"

#include "bench.hpp"

namespace pipebench {

std::optional<FileMap> FlakySource::fetchPoint(const std::string& pointUri, std::uint64_t round,
                                               std::uint32_t attempt) {
    if (attempt == 0 && perMille_ > 0) {
        std::uint64_t h = seed_ ^ (round * 0x9e3779b97f4a7c15ull);
        for (const char c : pointUri) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        h ^= h >> 29;
        if (h % 1000 < perMille_) return std::nullopt;
    }
    return inner_.fetchPoint(pointUri, round, attempt);
}

std::vector<std::string> TimedSource::listPoints(std::uint64_t round) {
    const std::uint64_t start = nowNs();
    auto points = inner_.listPoints(round);
    nanos += nowNs() - start;
    return points;
}

std::optional<FileMap> TimedSource::fetchPoint(const std::string& pointUri, std::uint64_t round,
                                               std::uint32_t attempt) {
    const std::uint64_t start = nowNs();
    auto files = inner_.fetchPoint(pointUri, round, attempt);
    nanos += nowNs() - start;
    if (files.has_value()) {
        ++pointsFetched;
        for (const auto& [name, bytes] : *files) bytesFetched += bytes.size();
    }
    return files;
}

Pipeline::Pipeline(const Repository& repo, const std::vector<ResourceCert>& trustAnchors,
                   std::uint64_t seed, unsigned faultPerMille, obs::Registry& registry)
    : base_(repo),
      flaky_(base_, seed, faultPerMille),
      timed_(flaky_),
      rp_("bench", trustAnchors, rp::RpOptions{.ts = 5, .tg = 10}, &registry),
      mem_(seed),
      vfs_(mem_),
      store_(vfs_, "rp", rp::StoreOptions{}, &registry),
      engine_(rp_, timed_, rp::SyncPolicy{}, &registry) {
    store_.open();
    engine_.attachStore(&store_);
    engine_.attachEpochSink([this](std::uint64_t, std::shared_ptr<const RpkiState> state) {
        const std::uint64_t start = nowNs();
        state_ = std::move(state);
        sinkNanos += nowNs() - start;
    });
}

}  // namespace pipebench
