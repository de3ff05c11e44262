// Content lookup over one publication point's files.
//
// A manifest logs each object by name and hash, and the relying party
// accepts the logged bytes under any name of the point: a preserved
// version (the hints mechanism, §5.3.2) or a copy a mirror renamed.
// Scanning the point once per entry costs a SHA-256 pass per file per
// entry, ~N²/2 when every name is permuted; a FileIndex hashes each file
// at most once, on first need.
#pragma once

#include <map>
#include <string_view>

#include "crypto/sha256.hpp"
#include "rpki/repository.hpp"

namespace rpkic::rp {

class FileIndex {
public:
    explicit FileIndex(const FileMap& files) : files_(files) {}

    /// The bytes stored under `name`, if they hash to `hash`.
    const Bytes* named(const std::string& name, const Digest& hash);
    /// The first file in name order whose bytes hash to `hash`.
    const Bytes* anyWith(const Digest& hash);

private:
    const Digest& digestOf(const FileMap::value_type& file);

    const FileMap& files_;
    std::map<std::string_view, Digest> digests_;  // by file name
    std::map<Digest, const Bytes*> byDigest_;     // built by the first anyWith()
    bool indexed_ = false;
};

}  // namespace rpkic::rp
