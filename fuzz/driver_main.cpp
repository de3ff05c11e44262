// Deterministic stand-in for libFuzzer's main, used when RC_FUZZ=OFF.
//
// Replays every file in the corpus directory through the driver's
// LLVMFuzzerTestOneInput, then runs a fixed number of seeded structured
// mutations (bit flips, truncations, appends, inserts, cross-corpus
// splices) of corpus entries. Same entry point, same oracles, zero
// nondeterminism: ctest runs this on every build with a pinned seed so the
// fuzz surface regresses loudly, while -DRC_FUZZ=ON swaps in the real
// coverage-guided loop.
//
//   fuzz_tlv --corpus fuzz/corpus/tlv --iters 6000 --seed 20140817
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "fuzz/seed_corpus.hpp"
#include "util/errors.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size);

namespace rpkic::fuzz {
namespace {

void runOne(const Bytes& input) {
    static const std::uint8_t kZero = 0;
    (void)LLVMFuzzerTestOneInput(input.empty() ? &kZero : input.data(), input.size());
}

/// Applies 1–4 structured mutations in place.
void mutate(Bytes& wire, const std::vector<Bytes>& corpus, Rng& rng) {
    const int mutations = static_cast<int>(rng.nextInRange(1, 4));
    for (int m = 0; m < mutations; ++m) {
        switch (rng.nextBelow(5)) {
            case 0:  // bit flip
                if (!wire.empty()) {
                    wire[static_cast<std::size_t>(rng.nextBelow(wire.size()))] ^=
                        static_cast<std::uint8_t>(1u << rng.nextBelow(8));
                }
                break;
            case 1:  // truncate
                wire.resize(static_cast<std::size_t>(rng.nextBelow(wire.size() + 1)));
                break;
            case 2:  // append garbage
                for (int j = 0; j < 4; ++j) {
                    wire.push_back(static_cast<std::uint8_t>(rng.nextU64()));
                }
                break;
            case 3:  // insert a byte
                wire.insert(wire.begin() +
                                static_cast<std::ptrdiff_t>(rng.nextBelow(wire.size() + 1)),
                            static_cast<std::uint8_t>(rng.nextU64()));
                break;
            case 4: {  // splice a window from another corpus entry
                const Bytes& other = rng.pick(corpus);
                if (other.empty()) break;
                const std::size_t from = static_cast<std::size_t>(rng.nextBelow(other.size()));
                const std::size_t len = static_cast<std::size_t>(
                    rng.nextBelow(other.size() - from) + 1);
                const std::size_t at =
                    static_cast<std::size_t>(rng.nextBelow(wire.size() + 1));
                wire.insert(wire.begin() + static_cast<std::ptrdiff_t>(at),
                            other.begin() + static_cast<std::ptrdiff_t>(from),
                            other.begin() + static_cast<std::ptrdiff_t>(from + len));
                break;
            }
        }
    }
}

int run(int argc, char** argv) {
    std::vector<std::string> corpusDirs;
    std::uint64_t iters = 2000;
    std::uint64_t seed = 20140817;  // SIGCOMM 2014 start date; arbitrary but pinned
    std::size_t maxLen = 1u << 16;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--corpus" && hasValue) {
            corpusDirs.emplace_back(argv[++i]);
        } else if (arg == "--iters" && hasValue) {
            iters = parseU64(argv[++i], "--iters");
        } else if (arg == "--seed" && hasValue) {
            seed = parseU64(argv[++i], "--seed");
        } else if (arg == "--max-len" && hasValue) {
            maxLen = static_cast<std::size_t>(parseU64(argv[++i], "--max-len"));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--corpus DIR]... [--iters N] [--seed S] [--max-len L]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<Bytes> corpus;
    for (const std::string& dir : corpusDirs) {
        for (Bytes& entry : loadCorpusDir(dir)) corpus.push_back(std::move(entry));
    }
    if (!corpusDirs.empty() && corpus.empty()) {
        std::fprintf(stderr, "error: corpus directories contained no files\n");
        return 2;
    }

    // Phase 1: replay every corpus entry verbatim.
    for (const Bytes& entry : corpus) runOne(entry);

    // Phase 2: seeded mutations of corpus entries (or of the empty input
    // when no corpus was given).
    Rng rng(seed);
    for (std::uint64_t iter = 0; iter < iters; ++iter) {
        Bytes input = corpus.empty() ? Bytes{} : rng.pick(corpus);
        if (corpus.empty()) {
            input.resize(static_cast<std::size_t>(rng.nextBelow(64)));
            for (auto& b : input) b = static_cast<std::uint8_t>(rng.nextU64());
        } else {
            mutate(input, corpus, rng);
        }
        if (input.size() > maxLen) input.resize(maxLen);
        runOne(input);
    }

    std::printf("fuzz: %zu corpus inputs + %llu seeded mutations, seed %llu: ok\n",
                corpus.size(), static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(seed));
    return 0;
}

}  // namespace
}  // namespace rpkic::fuzz

int main(int argc, char** argv) {
    try {
        return rpkic::fuzz::run(argc, argv);
    } catch (const rpkic::Error& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
