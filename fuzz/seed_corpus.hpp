// Canonical seed inputs shared by every fuzz consumer in the tree:
//
//   * fuzz/gen_corpus.cpp     — regenerates the checked-in corpus from these
//   * fuzz/fuzz_*.cpp         — deterministic ctest mode loads the corpus dir
//   * tests/fuzz_decode_test  — the PR-1 gtest fuzz harness mutates the same
//                               seeds instead of carrying a private copy
//
// The corpus on disk (fuzz/corpus/{tlv,manifest_chain,state_io,wal,rtr}/) is the
// single source of truth at run time; the sample*() builders here are the
// single source of truth for *regenerating* it. A golden test in
// tests/fuzz_decode_test.cpp fails if the two drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.hpp"

namespace rpkic::fuzz {

/// The cache fuzz_rtr serves: an EpochStore with this session whose two
/// epochs carry serials kRtrFirstSerial and its successor, 0 (RFC 1982
/// wrap). The rtr seeds query those serials.
inline constexpr std::uint16_t kRtrSession = 0x2014;
inline constexpr std::uint32_t kRtrFirstSerial = 0xFFFFFFFF;

/// One well-formed, non-trivial instance of every ObjectType, encoded.
/// These are the TLV fuzzer's seeds (promoted from tests/fuzz_decode_test).
std::vector<Bytes> sampleObjects();

/// Seed "programs" for the manifest-chain fuzzer. The driver interprets
/// the bytes as build-then-mutate instructions (see fuzz_manifest_chain.cpp
/// for the opcode table); these seeds cover every opcode at least once.
std::vector<Bytes> sampleChainPrograms();

/// Seed texts for the state_io fuzzer: valid dumps, comments, blank lines,
/// duplicates (normalization), v4/v6 mixes, and the empty file.
std::vector<std::string> sampleStateTexts();

/// Seed inputs for the WAL-recovery fuzzer (fuzz_wal). Each seed is a
/// flag byte (see fuzz_wal.cpp's input layout) followed by a wal.log
/// produced by driving a real rp::DurableStore over a MemVfs: an image
/// frame followed by deltas, a fold (an image commit) with the delta after
/// it, the same with a corrupt image frame, a torn tail, a corrupt frame,
/// an image frame where a delta belongs, a leftover wal.tmp, and the empty
/// log.
std::vector<Bytes> sampleWalImages();

/// Seed inputs for the fleet-consensus fuzzer (fuzz_consensus): encoded
/// votes with and without claims, and a hostile vote diverging from the
/// synthetic honest quorum.
std::vector<Bytes> sampleConsensusInputs();

/// Seed inputs for the RTR cache fuzzer (fuzz_rtr): a chunk-size header
/// (see fuzz_rtr.cpp's input layout) followed by what a router sends:
/// Reset Queries, Serial Queries from the first, the current, an unknown
/// serial and another session, pipelined and split queries, a router's
/// Error Report and a query in protocol version 0.
std::vector<Bytes> sampleRtrInputs();

/// One TLV seed per adversary scenario pack (src/adversary): each pack
/// contributes one encoded object shaped like its attack (a grafted-chain
/// manifest, a same-number twin, a bogus post-rollover, ...). Returned as
/// (pack-name, bytes); gen_corpus writes them as tlv/pack_<name>.bin.
std::vector<std::pair<std::string, Bytes>> samplePackTlvSeeds();

/// One manifest-chain opcode program per adversary pack, exercising the
/// chain shape that pack attacks; written as manifest_chain/pack_<name>.bin.
std::vector<std::pair<std::string, Bytes>> samplePackChainPrograms();

/// Reads every regular file under `dir` (non-recursive), sorted by
/// filename for determinism. Throws Error if the directory is missing or
/// unreadable — a missing corpus is a packaging bug, not an empty run.
std::vector<Bytes> loadCorpusDir(const std::string& dir);

}  // namespace rpkic::fuzz
