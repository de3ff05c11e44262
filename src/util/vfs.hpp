// Filesystem abstraction for crash-consistent persistence.
//
// The durable relying-party store (rp/durable_store.hpp) must survive being
// killed at any instruction and recover to a provably consistent state. That
// property cannot be tested against a real disk — the kernel decides what
// survives a crash — so all store I/O goes through this small VFS with two
// backends:
//
//  * DiskVfs   — the real filesystem (std::filesystem + fsync), used by the
//    tools (`rpkic-soak --state-dir`);
//  * MemVfs    — an in-memory model of a POSIX-ish filesystem *with crash
//    semantics*: every mutating operation is numbered, a programmable
//    trigger crashes the "process" at operation N (throwing CrashInjected
//    after collapsing volatile state), and the collapse models exactly what
//    a real crash may do — unsynced bytes are torn at a seeded boundary,
//    never-synced files may vanish, synced prefixes always survive. It also
//    injects *failed* operations (rename/sync/write returning an error
//    without crashing), extending the rc::chaos fault taxonomy from
//    delivery faults to durability faults.
//
// The crash model, per file:
//  * write() replaces content and voids all durability guarantees for the
//    file (a real overwrite truncates first — this is why the store never
//    overwrites without going through rename);
//  * append() keeps the previously synced prefix guaranteed;
//  * sync() makes the current content durable;
//  * renameFile() is atomic and durable (the store fsyncs before renaming;
//    directory-entry durability is modeled as immediate — see
//    docs/DURABILITY.md for the discussion);
//  * on crash, each file's content becomes a prefix of its volatile content
//    no shorter than its synced prefix, chosen by the crash RNG; files
//    never synced since creation may disappear entirely.
//
// MemVfs::opCount() after a fault-free run enumerates every possible crash
// point; the exhaustive sweep in sim/crash_sweep.hpp reruns the scenario
// once per point.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace rpkic::vfs {

/// Raised when a filesystem operation fails (real I/O error from DiskVfs,
/// or an injected durability fault from MemVfs). Callers that persist
/// state treat this as "the commit did not happen" — the store guarantees
/// the next recovery sees the pre-commit state.
class IoError : public Error {
public:
    explicit IoError(const std::string& what) : Error("io error: " + what) {}
};

/// Thrown by MemVfs at a programmed crash point, *after* volatile state has
/// been collapsed to what a real crash could leave behind. Harnesses catch
/// this, drop every in-memory object (the "process" died), and restart from
/// the surviving bytes. Deliberately NOT derived from IoError: a crash is
/// not an error the running code may observe — it never returns.
class CrashInjected : public Error {
public:
    explicit CrashInjected(std::uint64_t op)
        : Error("crash injected at vfs operation " + std::to_string(op)), op_(op) {}
    std::uint64_t op() const { return op_; }

private:
    std::uint64_t op_;
};

/// The filesystem operations the durable store needs. Paths are plain
/// strings; directories are created with makeDir and joined with '/'.
class Vfs {
public:
    virtual ~Vfs() = default;

    virtual bool exists(const std::string& path) = 0;
    /// Throws IoError if the file does not exist or cannot be read.
    virtual Bytes readFile(const std::string& path) = 0;
    /// Creates or replaces. NOT atomic, NOT durable until sync(); replacing
    /// voids durability guarantees for the old content (real overwrites
    /// truncate first).
    virtual void writeFile(const std::string& path, ByteView data) = 0;
    /// Appends, creating if missing. The previously synced prefix stays
    /// guaranteed across crashes.
    virtual void appendFile(const std::string& path, ByteView data) = 0;
    /// Makes the file's current content durable (fsync).
    virtual void sync(const std::string& path) = 0;
    /// Atomic replace; the destination is either the old or the new file
    /// after a crash, never a mixture. Source must exist.
    virtual void renameFile(const std::string& from, const std::string& to) = 0;
    /// Removes if present (idempotent).
    virtual void removeFile(const std::string& path) = 0;
    /// Creates the directory and any missing parents (idempotent).
    virtual void makeDir(const std::string& dir) = 0;
    /// Regular-file names directly under `dir`, sorted. Empty if the
    /// directory does not exist.
    virtual std::vector<std::string> listDir(const std::string& dir) = 0;
};

/// The real filesystem. writeFile/appendFile + sync use stdio + fsync, and
/// renameFile fsyncs the destination's directory (IoError if that fails,
/// except on a filesystem that cannot sync directories); the durable
/// store's write-temp/sync/rename discipline maps onto the usual POSIX
/// crash-consistency recipe.
class DiskVfs final : public Vfs {
public:
    bool exists(const std::string& path) override;
    Bytes readFile(const std::string& path) override;
    void writeFile(const std::string& path, ByteView data) override;
    void appendFile(const std::string& path, ByteView data) override;
    void sync(const std::string& path) override;
    void renameFile(const std::string& from, const std::string& to) override;
    void removeFile(const std::string& path) override;
    void makeDir(const std::string& dir) override;
    std::vector<std::string> listDir(const std::string& dir) override;
};

/// In-memory fault-injectable backend. Deterministic given the same
/// operation sequence, crash/fault schedule, and torn-write seed.
class MemVfs final : public Vfs {
public:
    /// `tornSeed` seeds the RNG that picks where unsynced bytes tear on
    /// crash. Two MemVfs with the same seed and operation history collapse
    /// identically.
    explicit MemVfs(std::uint64_t tornSeed = 0) : rng_(tornSeed * 0x9e3779b97f4a7c15ull + 1) {}

    bool exists(const std::string& path) override;
    Bytes readFile(const std::string& path) override;
    void writeFile(const std::string& path, ByteView data) override;
    void appendFile(const std::string& path, ByteView data) override;
    void sync(const std::string& path) override;
    void renameFile(const std::string& from, const std::string& to) override;
    void removeFile(const std::string& path) override;
    void makeDir(const std::string& dir) override;
    std::vector<std::string> listDir(const std::string& dir) override;

    // --- durability-fault injection -----------------------------------------

    /// Crash the "process" when the mutating-operation counter reaches
    /// `opIndex` (0-based): the operation does NOT take effect, volatile
    /// state collapses, CrashInjected is thrown.
    void armCrashAt(std::uint64_t opIndex) { crashAt_ = opIndex; }
    /// Fail (IoError, no effect, no crash) the mutating operation at
    /// `opIndex` — a full disk, an EXDEV rename, an fsync error.
    void armFailAt(std::uint64_t opIndex) { failAt_ = opIndex; }
    /// Fail the next readFile with IoError — an unreadable disk. Reads are
    /// not numbered operations, so this leaves the crash-point space alone.
    void armReadFail() { failRead_ = true; }

    /// Mutating operations performed so far (writes, appends, syncs,
    /// renames, removes — the crash-point index space).
    std::uint64_t opCount() const { return ops_; }

    /// Collapses volatile state as a crash would, without a trigger being
    /// armed (for tests that crash "between" operations).
    void crashNow();

    /// Total bytes currently stored (volatile view), for tests.
    std::size_t totalBytes() const;

private:
    struct File {
        Bytes data;                  ///< volatile (visible) content
        std::size_t syncedLen = 0;   ///< prefix guaranteed to survive a crash
        bool everSynced = false;     ///< false: the whole file may vanish
    };

    /// Bumps the op counter; applies an armed fail/crash trigger.
    void mutatingOp(const char* what, const std::string& path);

    std::map<std::string, File> files_;
    std::map<std::string, bool> dirs_;
    Rng rng_;
    std::uint64_t ops_ = 0;
    std::optional<std::uint64_t> crashAt_;
    std::optional<std::uint64_t> failAt_;
    bool failRead_ = false;
};

/// "a/b" (no trailing-slash normalization; the store uses flat dirs).
std::string joinPath(const std::string& dir, const std::string& name);

}  // namespace rpkic::vfs
