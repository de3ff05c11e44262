#include "util/vfs.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define RC_VFS_HAVE_FSYNC 1
#else
#define RC_VFS_HAVE_FSYNC 0
#endif

namespace rpkic::vfs {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// DiskVfs

namespace {

/// RAII stdio handle so early returns/throws never leak the FILE*.
class StdioFile {
public:
    StdioFile(const std::string& path, const char* mode) : f_(std::fopen(path.c_str(), mode)) {}
    StdioFile(const StdioFile&) = delete;
    StdioFile& operator=(const StdioFile&) = delete;
    ~StdioFile() {
        if (f_ != nullptr) std::fclose(f_);
    }
    std::FILE* get() const { return f_; }
    explicit operator bool() const { return f_ != nullptr; }

private:
    std::FILE* f_;
};

void writeAll(const std::string& path, ByteView data, const char* mode) {
    StdioFile f(path, mode);
    if (!f) throw IoError("cannot open " + path + " for writing: " + std::strerror(errno));
    if (!data.empty() &&
        std::fwrite(data.data(), 1, data.size(), f.get()) != data.size()) {
        throw IoError("short write to " + path);
    }
    if (std::fflush(f.get()) != 0) throw IoError("flush failed for " + path);
}

}  // namespace

bool DiskVfs::exists(const std::string& path) {
    std::error_code ec;
    return fs::is_regular_file(path, ec);
}

Bytes DiskVfs::readFile(const std::string& path) {
    StdioFile f(path, "rb");
    if (!f) throw IoError("cannot open " + path + ": " + std::strerror(errno));
    Bytes out;
    std::uint8_t buf[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f.get())) > 0) {
        out.insert(out.end(), buf, buf + n);
    }
    if (std::ferror(f.get()) != 0) throw IoError("read failed for " + path);
    return out;
}

void DiskVfs::writeFile(const std::string& path, ByteView data) {
    writeAll(path, data, "wb");
}

void DiskVfs::appendFile(const std::string& path, ByteView data) {
    writeAll(path, data, "ab");
}

void DiskVfs::sync(const std::string& path) {
#if RC_VFS_HAVE_FSYNC
    StdioFile f(path, "rb");
    if (!f) throw IoError("cannot open " + path + " for fsync: " + std::strerror(errno));
    if (::fsync(fileno(f.get())) != 0) {
        throw IoError("fsync failed for " + path + ": " + std::strerror(errno));
    }
#else
    (void)path;  // best effort: writeAll already flushed to the OS
#endif
}

void DiskVfs::renameFile(const std::string& from, const std::string& to) {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) throw IoError("rename " + from + " -> " + to + ": " + ec.message());
#if RC_VFS_HAVE_FSYNC
    // The rename is a commit point, and it survives a crash only once the
    // directory entry is synced.
    std::string dir = fs::path(to).parent_path().string();
    if (dir.empty()) dir = ".";
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) {
        throw IoError("cannot open directory " + dir + " for fsync: " + std::strerror(errno));
    }
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    // EINVAL: this filesystem cannot sync a directory, so there the entry's
    // durability is best effort (docs/DURABILITY.md).
    if (rc != 0 && err != EINVAL) {
        throw IoError("fsync of directory " + dir + " failed: " + std::strerror(err));
    }
#endif
}

void DiskVfs::removeFile(const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) throw IoError("remove " + path + ": " + ec.message());
}

void DiskVfs::makeDir(const std::string& dir) {
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) throw IoError("mkdir " + dir + ": " + ec.message());
}

std::vector<std::string> DiskVfs::listDir(const std::string& dir) {
    std::vector<std::string> out;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return out;
    for (const auto& entry : it) {
        if (entry.is_regular_file()) out.push_back(entry.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

// ---------------------------------------------------------------------------
// MemVfs

void MemVfs::mutatingOp(const char* what, const std::string& path) {
    const std::uint64_t index = ops_++;
    if (failAt_.has_value() && index == *failAt_) {
        failAt_.reset();
        throw IoError(std::string("injected fault: ") + what + " " + path + " failed at op " +
                      std::to_string(index));
    }
    if (crashAt_.has_value() && index == *crashAt_) {
        crashAt_.reset();
        crashNow();
        throw CrashInjected(index);
    }
}

void MemVfs::crashNow() {
    for (auto it = files_.begin(); it != files_.end();) {
        File& f = it->second;
        if (f.data.size() > f.syncedLen) {
            // Unsynced bytes tear at a seeded boundary >= the synced prefix.
            const std::size_t keep =
                f.syncedLen +
                static_cast<std::size_t>(rng_.nextBelow(f.data.size() - f.syncedLen + 1));
            f.data.resize(keep);
        }
        f.syncedLen = f.data.size();
        if (!f.everSynced && f.data.empty()) {
            // Created, never synced, nothing survived: the directory entry
            // itself may never have reached the disk.
            it = files_.erase(it);
            continue;
        }
        ++it;
    }
}

std::size_t MemVfs::totalBytes() const {
    std::size_t n = 0;
    for (const auto& [path, f] : files_) n += f.data.size();
    return n;
}

bool MemVfs::exists(const std::string& path) {
    return files_.count(path) > 0;
}

Bytes MemVfs::readFile(const std::string& path) {
    if (std::exchange(failRead_, false)) throw IoError("injected fault: read " + path + " failed");
    const auto it = files_.find(path);
    if (it == files_.end()) throw IoError("cannot open " + path + ": no such file");
    return it->second.data;
}

void MemVfs::writeFile(const std::string& path, ByteView data) {
    mutatingOp("write", path);
    File& f = files_[path];
    // Room to grow as much again: the appends that follow a write (a WAL's
    // deltas behind its image) extend the buffer in place instead of
    // copying the whole file on the first one. The capacity is never
    // touched until used, so it costs no resident memory.
    Bytes fresh;
    fresh.reserve(2 * data.size());
    fresh.assign(data.begin(), data.end());
    f.data = std::move(fresh);
    // Replacing content truncates: the old durable prefix is gone and the
    // new content is not durable yet.
    f.syncedLen = 0;
}

void MemVfs::appendFile(const std::string& path, ByteView data) {
    mutatingOp("append", path);
    File& f = files_[path];
    f.data.insert(f.data.end(), data.begin(), data.end());
}

void MemVfs::sync(const std::string& path) {
    mutatingOp("sync", path);
    const auto it = files_.find(path);
    if (it == files_.end()) throw IoError("cannot fsync " + path + ": no such file");
    it->second.syncedLen = it->second.data.size();
    it->second.everSynced = true;
}

void MemVfs::renameFile(const std::string& from, const std::string& to) {
    mutatingOp("rename", from);
    const auto it = files_.find(from);
    if (it == files_.end()) throw IoError("rename " + from + ": no such file");
    File moved = std::move(it->second);
    files_.erase(it);
    // Atomic and durable: after a crash the destination is the complete old
    // or complete new file (the store fsyncs content before renaming, so
    // declaring the entry durable does not hide torn content).
    moved.syncedLen = moved.data.size();
    moved.everSynced = true;
    files_[to] = std::move(moved);
}

void MemVfs::removeFile(const std::string& path) {
    mutatingOp("remove", path);
    files_.erase(path);
}

void MemVfs::makeDir(const std::string& dir) {
    // Directory creation is metadata-only in this model; not a crash point.
    dirs_[dir] = true;
}

std::vector<std::string> MemVfs::listDir(const std::string& dir) {
    std::vector<std::string> out;
    const std::string prefix = dir + "/";
    for (const auto& [path, f] : files_) {
        if (path.rfind(prefix, 0) == 0 && path.find('/', prefix.size()) == std::string::npos) {
            out.push_back(path.substr(prefix.size()));
        }
    }
    return out;  // std::map iteration is already sorted
}

std::string joinPath(const std::string& dir, const std::string& name) {
    if (dir.empty()) return name;
    if (dir.back() == '/') return dir + name;
    return dir + "/" + name;
}

}  // namespace rpkic::vfs
