// Microbenchmarks for the §4.1 detector: prefix-validity index
// construction (the paper's O(n log n) claim), state diffing, and route
// classification, swept over the number of ROA tuples.
//
// Besides the google-benchmark micro suites, the binary doubles as the
// thread-sweep harness behind BENCH_detector.json:
//
//   micro_detector --json-out BENCH_detector.json
//                  [--threads-list 1,2,4,8] [--tuples N] [--repeat K]
//
// The sweep times index construction + diff for two churned snapshots at
// each thread count (best of K repeats), asserts the serialized reports
// are byte-identical across counts, and writes a JSON document with the
// per-count timings, speedups, and the machine's hardware thread count —
// read the numbers against `hardware_threads` (docs/PERFORMANCE.md).
// Without --json-out the binary behaves as a normal google-benchmark
// suite.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "detector/diff.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace rpkic;

RpkiState randomState(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<RoaTuple> tuples;
    tuples.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const int len = static_cast<int>(rng.nextInRange(10, 24));
        const auto addr = static_cast<std::uint32_t>(rng.nextU64()) &
                          ~((1u << (32 - len)) - 1u);
        const auto maxLen = static_cast<std::uint8_t>(rng.nextInRange(
            static_cast<std::uint64_t>(len), std::min(24, len + 8)));
        tuples.push_back({IpPrefix::v4(addr, len), maxLen,
                          static_cast<Asn>(rng.nextInRange(1, 8000))});
    }
    return RpkiState(std::move(tuples));
}

void BM_IndexConstruction(benchmark::State& state) {
    const RpkiState s = randomState(static_cast<std::size_t>(state.range(0)), 42);
    for (auto _ : state) {
        PrefixValidityIndex idx(s);
        benchmark::DoNotOptimize(idx.invalidFootprintAddresses());
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_IndexConstruction)->Range(1000, 100000)->Complexity(benchmark::oNLogN)
    ->Unit(benchmark::kMillisecond);

void BM_Classify(benchmark::State& state) {
    const RpkiState s = randomState(20000, 42);  // production-sized
    const PrefixValidityIndex idx(s);
    Rng rng(7);
    for (auto _ : state) {
        const Route r{IpPrefix::v4(static_cast<std::uint32_t>(rng.nextU64()), 24),
                      static_cast<Asn>(rng.nextInRange(1, 8000))};
        benchmark::DoNotOptimize(idx.classify(r));
    }
}
BENCHMARK(BM_Classify);

void BM_DailyDiff(benchmark::State& state) {
    // Two states differing by ~20 tuples, like consecutive trace days.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const RpkiState prev = randomState(n, 42);
    std::vector<RoaTuple> tuples = prev.tuples();
    Rng rng(43);
    for (int i = 0; i < 10 && !tuples.empty(); ++i) {
        tuples.erase(tuples.begin() +
                     static_cast<long>(rng.nextBelow(tuples.size())));
    }
    const RpkiState cur = randomState(10, 99);
    std::vector<RoaTuple> merged = tuples;
    merged.insert(merged.end(), cur.tuples().begin(), cur.tuples().end());
    const RpkiState next{std::move(merged)};

    const PrefixValidityIndex idxPrev(prev), idxNext(next);
    for (auto _ : state) {
        benchmark::DoNotOptimize(diffStates(idxPrev, idxNext));
    }
    state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DailyDiff)->Range(1000, 50000)->Unit(benchmark::kMillisecond);

void BM_TriangleSetAlgebra(benchmark::State& state) {
    const RpkiState a = randomState(10000, 1);
    const RpkiState b = randomState(10000, 2);
    const PrefixValidityIndex ia(a), ib(b);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ia.knownTriangles().subtract(ib.knownTriangles()));
        benchmark::DoNotOptimize(ia.knownTriangles().intersect(ib.knownTriangles()));
    }
}
BENCHMARK(BM_TriangleSetAlgebra)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Thread-sweep harness (--json-out): the BENCH_detector.json generator.

struct SweepRow {
    std::size_t threads = 0;
    double buildSeconds = 0;
    double diffSeconds = 0;
};

std::string formatSeconds(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::string(buf);
}

std::vector<std::size_t> parseThreadsList(const std::string& spec) {
    std::vector<std::size_t> out;
    std::string current;
    for (const char c : spec + ",") {
        if (c == ',') {
            if (!current.empty()) out.push_back(rc::parallel::parseThreadSpec(current));
            current.clear();
        } else {
            current += c;
        }
    }
    if (out.empty()) throw UsageError("--threads-list: no thread counts given");
    return out;
}

int runThreadSweep(const std::string& jsonOut, const std::vector<std::size_t>& threadsList,
                   std::size_t tuples, int repeats) {
    // Two consecutive-day snapshots: cur drops ~1% of prev and adds fresh
    // tuples, so the diff sees realistic churn.
    const RpkiState prevState = randomState(tuples, 42);
    std::vector<RoaTuple> curTuples;
    Rng rng(43);
    for (const auto& t : prevState.tuples()) {
        if (!rng.nextBool(0.01)) curTuples.push_back(t);
    }
    const RpkiState fresh = randomState(tuples / 100 + 10, 99);
    curTuples.insert(curTuples.end(), fresh.tuples().begin(), fresh.tuples().end());
    const RpkiState curState{std::move(curTuples)};
    const auto prevShared = std::make_shared<const RpkiState>(prevState);
    const auto curShared = std::make_shared<const RpkiState>(curState);

    std::vector<SweepRow> rows;
    std::string referenceReport;
    bool identical = true;
    for (const std::size_t threads : threadsList) {
        rc::parallel::Pool pool(threads);
        SweepRow best;
        best.threads = threads;
        std::string report;
        for (int r = 0; r < repeats; ++r) {
            bench::Stopwatch buildWatch;
            const PrefixValidityIndex prevIdx(prevShared, pool);
            const PrefixValidityIndex curIdx(curShared, pool);
            const double buildSeconds = buildWatch.elapsedSeconds();
            bench::Stopwatch diffWatch;
            const DowngradeReport rep = diffStates(prevIdx, curIdx, 8, pool);
            const double diffSeconds = diffWatch.elapsedSeconds();
            if (r == 0 || buildSeconds + diffSeconds <
                              best.buildSeconds + best.diffSeconds) {
                best.buildSeconds = buildSeconds;
                best.diffSeconds = diffSeconds;
            }
            report = serializeReport(rep);
        }
        if (referenceReport.empty()) {
            referenceReport = report;
        } else if (report != referenceReport) {
            identical = false;
        }
        rows.push_back(best);
        std::printf("threads=%zu build=%.4fs diff=%.4fs total=%.4fs\n", threads,
                    best.buildSeconds, best.diffSeconds,
                    best.buildSeconds + best.diffSeconds);
    }

    const double base = rows.empty() ? 0.0 : rows[0].buildSeconds + rows[0].diffSeconds;
    std::ofstream out(jsonOut, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "micro_detector: cannot write %s\n", jsonOut.c_str());
        return 1;
    }
    out << "{\n";
    out << "  \"bench\": \"detector_thread_sweep\",\n";
    out << "  \"tuples\": " << tuples << ",\n";
    out << "  \"hardware_threads\": " << rc::parallel::hardwareThreads() << ",\n";
    out << "  \"repeats\": " << repeats << ",\n";
    out << "  \"identical_reports\": " << (identical ? "true" : "false") << ",\n";
    out << "  \"sweep\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const SweepRow& r = rows[i];
        const double total = r.buildSeconds + r.diffSeconds;
        out << "    {\"threads\": " << r.threads << ", \"build_seconds\": "
            << formatSeconds(r.buildSeconds) << ", \"diff_seconds\": "
            << formatSeconds(r.diffSeconds) << ", \"total_seconds\": "
            << formatSeconds(total) << ", \"speedup_vs_1\": "
            << formatSeconds(total > 0 ? base / total : 0.0) << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    out << "}\n";
    std::printf("wrote %s (identical_reports=%s)\n", jsonOut.c_str(),
                identical ? "true" : "false");
    return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string jsonOut;
    std::string threadsList = "1,2,4,8";
    std::size_t tuples = 20000;
    int repeats = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json-out" && i + 1 < argc) {
            jsonOut = argv[++i];
        } else if (arg == "--threads-list" && i + 1 < argc) {
            threadsList = argv[++i];
        } else if (arg == "--tuples" && i + 1 < argc) {
            tuples = static_cast<std::size_t>(bench::flagU64(argv[++i], "--tuples"));
        } else if (arg == "--repeat" && i + 1 < argc) {
            repeats = static_cast<int>(bench::flagU64(argv[++i], "--repeat"));
        }
    }
    if (!jsonOut.empty()) {
        try {
            return runThreadSweep(jsonOut, parseThreadsList(threadsList), tuples,
                                  repeats < 1 ? 1 : repeats);
        } catch (const Error& e) {
            std::fprintf(stderr, "micro_detector: %s\n", e.what());
            return 1;
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
