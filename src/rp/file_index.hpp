// Content lookup over one publication point's files.
//
// A manifest logs each object by name and hash, and the relying party
// accepts the logged bytes under any name of the point: a preserved
// version (the hints mechanism, §5.3.2) or a copy a mirror renamed.
// Scanning the point once per entry costs a SHA-256 pass per file per
// entry, ~N²/2 when every name is permuted; a FileIndex hashes each file
// at most once, on first need.
//
// Bytes equal to bytes the relying party already verified carry what was
// verified. Given the point the relying party holds (HeldPoint), a file
// whose bytes equal the held copy under its name, where the held head
// logs that name with the hash asked for, matches without being hashed:
// the held copy hashes to the held head's entry, and equal bytes have
// equal hashes. Only the remaining files are hashed.
#pragma once

#include <map>
#include <string_view>

#include "crypto/sha256.hpp"
#include "rpki/objects.hpp"
#include "rpki/repository.hpp"

namespace rpkic::rp {

/// What a relying party holds at one point: the bytes of its head
/// manifest, the head decoded from them, and the files it accepted under
/// that head (each hashes to the head's entry for its name).
struct HeldPoint {
    const Bytes& manifestBytes;
    const Manifest& manifest;
    const FileMap& files;
};

class FileIndex {
public:
    /// `held` (may be null) must outlive the index.
    explicit FileIndex(const FileMap& files, const HeldPoint* held = nullptr)
        : files_(files), held_(held) {}

    /// The bytes stored under `name`, if they hash to `hash`.
    const Bytes* named(const std::string& name, const Digest& hash);
    /// The first file in name order whose bytes hash to `hash`.
    const Bytes* anyWith(const Digest& hash);
    /// The held copy under `name`, if the held head logs `name` with `hash`.
    const Bytes* held(const std::string& name, const Digest& hash) const;

    /// Files hashed so far, and named() matches made by comparison.
    std::size_t hashed() const { return digests_.size(); }
    std::size_t compared() const { return compared_; }

private:
    const Digest& digestOf(const FileMap::value_type& file);

    const FileMap& files_;
    const HeldPoint* held_;
    std::map<std::string_view, Digest> digests_;  // by file name
    std::map<Digest, const Bytes*> byDigest_;     // built by the first anyWith()
    bool indexed_ = false;
    std::size_t compared_ = 0;
};

}  // namespace rpkic::rp
