// Regenerates the checked-in seed corpus under fuzz/corpus/ from the
// canonical builders in seed_corpus.cpp. Run after changing the wire
// format or the seed builders:
//
//   ./build/fuzz/gen_corpus [output-root]     # default: fuzz/corpus
//
// The SharedCorpus.* drift guards (in tests/fuzz_decode_test.cpp) fail
// when the tlv, manifest_chain or wal corpus and the builders drift, so
// forgetting to re-run this is caught by ctest.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/seed_corpus.hpp"
#include "util/bytes.hpp"

namespace rpkic::fuzz {
namespace {

namespace fs = std::filesystem;

void writeFile(const fs::path& path, ByteView data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n", path.string().c_str());
        std::exit(1);
    }
}

int run(const std::string& root) {
    int written = 0;

    const fs::path tlvDir = fs::path(root) / "tlv";
    fs::create_directories(tlvDir);
    const std::vector<Bytes> objects = sampleObjects();
    for (std::size_t i = 0; i < objects.size(); ++i) {
        writeFile(tlvDir / ("obj_" + std::to_string(i) + ".bin"),
                  ByteView(objects[i].data(), objects[i].size()));
        ++written;
    }

    for (const auto& [name, bytes] : samplePackTlvSeeds()) {
        writeFile(tlvDir / ("pack_" + name + ".bin"), ByteView(bytes.data(), bytes.size()));
        ++written;
    }

    const fs::path chainDir = fs::path(root) / "manifest_chain";
    fs::create_directories(chainDir);
    const std::vector<Bytes> programs = sampleChainPrograms();
    for (std::size_t i = 0; i < programs.size(); ++i) {
        writeFile(chainDir / ("prog_" + std::to_string(i) + ".bin"),
                  ByteView(programs[i].data(), programs[i].size()));
        ++written;
    }
    for (const auto& [name, bytes] : samplePackChainPrograms()) {
        writeFile(chainDir / ("pack_" + name + ".bin"), ByteView(bytes.data(), bytes.size()));
        ++written;
    }

    const fs::path stateDir = fs::path(root) / "state_io";
    fs::create_directories(stateDir);
    const std::vector<std::string> texts = sampleStateTexts();
    for (std::size_t i = 0; i < texts.size(); ++i) {
        writeFile(stateDir / ("state_" + std::to_string(i) + ".txt"),
                  ByteView(reinterpret_cast<const std::uint8_t*>(texts[i].data()),
                           texts[i].size()));
        ++written;
    }

    const fs::path walDir = fs::path(root) / "wal";
    fs::create_directories(walDir);
    const std::vector<Bytes> walImages = sampleWalImages();
    for (std::size_t i = 0; i < walImages.size(); ++i) {
        writeFile(walDir / ("wal_" + std::to_string(i) + ".bin"),
                  ByteView(walImages[i].data(), walImages[i].size()));
        ++written;
    }

    const fs::path consensusDir = fs::path(root) / "consensus";
    fs::create_directories(consensusDir);
    const std::vector<Bytes> consensusInputs = sampleConsensusInputs();
    for (std::size_t i = 0; i < consensusInputs.size(); ++i) {
        writeFile(consensusDir / ("consensus_" + std::to_string(i) + ".bin"),
                  ByteView(consensusInputs[i].data(), consensusInputs[i].size()));
        ++written;
    }

    const fs::path rtrDir = fs::path(root) / "rtr";
    fs::create_directories(rtrDir);
    const std::vector<Bytes> rtrInputs = sampleRtrInputs();
    for (std::size_t i = 0; i < rtrInputs.size(); ++i) {
        writeFile(rtrDir / ("rtr_" + std::to_string(i) + ".bin"),
                  ByteView(rtrInputs[i].data(), rtrInputs[i].size()));
        ++written;
    }

    std::printf("gen_corpus: wrote %d seed files under %s\n", written, root.c_str());
    return 0;
}

}  // namespace
}  // namespace rpkic::fuzz

int main(int argc, char** argv) {
    const std::string root = argc > 1 ? argv[1] : "fuzz/corpus";
    return rpkic::fuzz::run(root);
}
