#include "rp/file_index.hpp"

namespace rpkic::rp {

const Digest& FileIndex::digestOf(const FileMap::value_type& file) {
    const auto [it, fresh] = digests_.try_emplace(file.first);
    if (fresh) it->second = fileHashOf(ByteView(file.second.data(), file.second.size()));
    return it->second;
}

const Bytes* FileIndex::held(const std::string& name, const Digest& hash) const {
    if (held_ == nullptr) return nullptr;
    const ManifestEntry* entry = held_->manifest.findEntry(name);
    if (entry == nullptr || entry->fileHash != hash) return nullptr;
    const auto it = held_->files.find(name);
    return it == held_->files.end() ? nullptr : &it->second;
}

const Bytes* FileIndex::named(const std::string& name, const Digest& hash) {
    const auto it = files_.find(name);
    if (it == files_.end()) return nullptr;
    if (const Bytes* copy = held(name, hash); copy != nullptr && *copy == it->second) {
        ++compared_;
        return &it->second;
    }
    if (digestOf(*it) != hash) return nullptr;
    return &it->second;
}

const Bytes* FileIndex::anyWith(const Digest& hash) {
    if (!indexed_) {
        // emplace keeps the first file in name order for each digest.
        for (const auto& file : files_) byDigest_.emplace(digestOf(file), &file.second);
        indexed_ = true;
    }
    const auto it = byDigest_.find(hash);
    return it == byDigest_.end() ? nullptr : it->second;
}

}  // namespace rpkic::rp
