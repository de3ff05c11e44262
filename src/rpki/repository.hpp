// Publication points and repositories.
//
// The production RPKI stores objects in rsync/RRDP repositories; relying
// parties pull them into local caches (paper §2.1). We model a repository
// as a map from publication-point URI to a directory of named files, and a
// relying party's pull as taking a Snapshot. Threats to object *delivery*
// (paper §3.2.2) are modeled as mutations of what a fetch returns: the
// relying-party code cannot tell a misbehaving authority from a lossy
// transfer, which is exactly the point. The fault injectors and the
// schedule-level chaos engine live in rpki/chaos.hpp.
#pragma once

#include <map>
#include <string>

#include "util/bytes.hpp"

namespace rpkic {

/// Files of one publication point: filename -> file contents.
using FileMap = std::map<std::string, Bytes>;

/// A relying party's view of the entire repository at one instant:
/// publication-point URI -> files.
struct Snapshot {
    std::map<std::string, FileMap> points;

    const FileMap* point(const std::string& pointUri) const {
        const auto it = points.find(pointUri);
        return it == points.end() ? nullptr : &it->second;
    }

    const Bytes* file(const std::string& pointUri, const std::string& filename) const {
        const FileMap* fm = point(pointUri);
        if (fm == nullptr) return nullptr;
        const auto it = fm->find(filename);
        return it == fm->end() ? nullptr : &it->second;
    }

    std::size_t totalFiles() const;
    std::size_t totalBytes() const;
};

/// The authoritative store that authorities publish into. A mirror-world
/// attacker simply maintains two Repository instances and serves different
/// ones to different relying parties (see src/sim).
class Repository {
public:
    void putFile(const std::string& pointUri, const std::string& filename, Bytes contents);
    void removeFile(const std::string& pointUri, const std::string& filename);
    /// Removes the point and all its files (e.g. after revocation + ts).
    void removePoint(const std::string& pointUri);

    const FileMap* point(const std::string& pointUri) const;
    const Bytes* file(const std::string& pointUri, const std::string& filename) const;

    /// Every point's files, by URI, without a copy.
    const std::map<std::string, FileMap>& points() const { return points_; }
    Snapshot snapshot() const { return Snapshot{points_}; }

private:
    std::map<std::string, FileMap> points_;
};

}  // namespace rpkic
