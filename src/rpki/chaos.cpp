#include "rpki/chaos.hpp"

#include <algorithm>
#include <sstream>

#include "rpki/objects.hpp"
#include "util/errors.hpp"
#include "util/parse.hpp"

namespace rpkic {

// ===========================================================================
// Sources

std::vector<std::string> RepositorySource::listPoints(std::uint64_t round) {
    (void)round;
    std::vector<std::string> out;
    for (const auto& [uri, files] : repo_->points()) out.push_back(uri);
    return out;
}

std::optional<FileMap> RepositorySource::fetchPoint(const std::string& pointUri,
                                                    std::uint64_t round, std::uint32_t attempt) {
    (void)round;
    (void)attempt;
    const FileMap* fm = repo_->point(pointUri);
    if (fm == nullptr) return std::nullopt;
    return *fm;  // copy: the caller may mutate / outlive the repo state
}

// ===========================================================================
// Fault plans

std::string_view toString(FaultKind k) {
    switch (k) {
        case FaultKind::DropFile: return "drop-file";
        case FaultKind::Corrupt: return "corrupt";
        case FaultKind::Truncate: return "truncate";
        case FaultKind::DropPoint: return "drop-point";
        case FaultKind::WithholdManifest: return "withhold-manifest";
        case FaultKind::ServeStale: return "serve-stale";
        case FaultKind::Flap: return "flap";
        case FaultKind::OversizedObject: return "oversized-object";
        case FaultKind::InjectJunk: return "inject-junk";
        case FaultKind::ChainGraft: return "chain-graft";
    }
    return "?";
}

FaultKind faultKindFromString(std::string_view s) {
    for (int k = 0; k <= static_cast<int>(FaultKind::kLast); ++k) {
        if (s == toString(static_cast<FaultKind>(k))) return static_cast<FaultKind>(k);
    }
    throw ParseError("unknown fault kind: " + std::string(s));
}

namespace {

bool kindIsFileScoped(FaultKind k) {
    return k == FaultKind::DropFile || k == FaultKind::Corrupt || k == FaultKind::Truncate ||
           k == FaultKind::OversizedObject || k == FaultKind::InjectJunk ||
           k == FaultKind::ChainGraft;
}

/// Splits "key=value" (value may contain '='? no: keys are known, values
/// never contain spaces; points/filenames with spaces are rejected).
std::pair<std::string_view, std::string_view> splitKv(std::string_view token) {
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) {
        throw ParseError("fault-plan token is not key=value: " + std::string(token));
    }
    return {token.substr(0, eq), token.substr(eq + 1)};
}

/// FNV-1a, not std::hash: the garbage stream must be identical across
/// standard libraries for plan replays to reproduce bit for bit.
std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Shared payload for the two garbage-planting kinds.
Bytes garbagePayload(const Fault& f) {
    const std::uint64_t size =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(f.param, 1u << 20));
    return adversarialGarbage(f.param ^ fnv1a(f.filename), static_cast<std::size_t>(size));
}

}  // namespace

std::string Fault::str() const {
    std::ostringstream os;
    os << "fault kind=" << toString(kind) << " point=" << pointUri;
    if (!filename.empty()) os << " file=" << filename;
    os << " round=" << round << " rounds=" << rounds << " attempts=";
    if (attempts == kAllAttempts) {
        os << "all";
    } else {
        os << attempts;
    }
    os << " param=" << param;
    return os.str();
}

std::string FaultPlan::serialize() const {
    std::ostringstream os;
    os << "faultplan v1 seed=" << seed << " rounds=" << rounds << " retry=" << retryBudget
       << " adversarial-ppm=" << adversarialPpm << " stall-horizon=" << stallHorizon;
    // Emitted only when armed, so pre-PR5 plans round-trip byte-identically.
    if (crashEvery != 0) os << " crash-every=" << crashEvery;
    // Same convention: pre-attack-zoo plans never carry pack=.
    if (!pack.empty()) os << " pack=" << pack;
    os << "\n";
    for (const Fault& f : faults) os << f.str() << "\n";
    return os.str();
}

FaultPlan FaultPlan::parse(std::string_view text) {
    FaultPlan plan;
    bool sawHeader = false;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const auto nl = text.find('\n', pos);
        std::string_view line =
            text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
        pos = nl == std::string_view::npos ? text.size() + 1 : nl + 1;

        // Tokenize on single spaces; skip blank lines and comments.
        std::vector<std::string_view> tokens;
        std::size_t t = 0;
        while (t < line.size()) {
            while (t < line.size() && line[t] == ' ') ++t;
            std::size_t e = t;
            while (e < line.size() && line[e] != ' ') ++e;
            if (e > t) tokens.push_back(line.substr(t, e - t));
            t = e;
        }
        if (tokens.empty() || tokens.front().starts_with('#')) continue;

        if (tokens.front() == "faultplan") {
            if (sawHeader) throw ParseError("duplicate fault-plan header");
            if (tokens.size() < 2 || tokens[1] != "v1") {
                throw ParseError("unsupported fault-plan version");
            }
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                const auto [key, value] = splitKv(tokens[i]);
                if (key == "seed") {
                    plan.seed = parseU64(value, "seed");
                } else if (key == "rounds") {
                    plan.rounds = parseU64(value, "rounds");
                } else if (key == "retry") {
                    plan.retryBudget = parseU32(value, "retry");
                } else if (key == "adversarial-ppm") {
                    plan.adversarialPpm = parseU32(value, "adversarial-ppm");
                } else if (key == "stall-horizon") {
                    plan.stallHorizon = parseU64(value, "stall-horizon");
                } else if (key == "crash-every") {
                    plan.crashEvery = parseU32(value, "crash-every");
                } else if (key == "pack") {
                    plan.pack = std::string(value);
                } else {
                    throw ParseError("unknown fault-plan header field: " + std::string(key));
                }
            }
            sawHeader = true;
            continue;
        }
        if (tokens.front() != "fault") {
            throw ParseError("unexpected fault-plan line: " + std::string(line));
        }
        if (!sawHeader) throw ParseError("fault before fault-plan header");

        Fault f;
        bool sawKind = false, sawPoint = false;
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            const auto [key, value] = splitKv(tokens[i]);
            if (key == "kind") {
                f.kind = faultKindFromString(value);
                sawKind = true;
            } else if (key == "point") {
                f.pointUri = std::string(value);
                sawPoint = true;
            } else if (key == "file") {
                f.filename = std::string(value);
            } else if (key == "round") {
                f.round = parseU64(value, "round");
            } else if (key == "rounds") {
                f.rounds = parseU32(value, "rounds");
            } else if (key == "attempts") {
                f.attempts = value == "all" ? Fault::kAllAttempts : parseU32(value, "attempts");
            } else if (key == "param") {
                f.param = parseU64(value, "param");
            } else {
                throw ParseError("unknown fault field: " + std::string(key));
            }
        }
        if (!sawKind || !sawPoint) throw ParseError("fault lacks kind= or point=");
        if (kindIsFileScoped(f.kind) && f.filename.empty()) {
            throw ParseError("file-scoped fault lacks file=");
        }
        if (f.rounds == 0) throw ParseError("fault with rounds=0 is inert");
        plan.faults.push_back(std::move(f));
    }
    if (!sawHeader) throw ParseError("missing fault-plan header");
    return plan;
}

Bytes adversarialGarbage(std::uint64_t seed, std::size_t size) {
    Bytes out;
    out.reserve(size);
    std::uint64_t state = seed;
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < size; ++i) {
        if (i % 8 == 0) {
            state += 0x9e3779b97f4a7c15ull;  // splitmix64
            word = state;
            word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ull;
            word = (word ^ (word >> 27)) * 0x94d049bb133111ebull;
            word ^= word >> 31;
        }
        out.push_back(static_cast<std::uint8_t>(word >> ((i % 8) * 8)));
    }
    return out;
}

std::uint64_t deriveMemberSeed(std::uint64_t masterSeed, std::uint32_t rpIndex) {
    // splitmix64 finalizer over (master + (index+1) * golden-gamma). The
    // +1 keeps index 0 off the raw master seed; the finalizer's avalanche
    // makes adjacent indices statistically independent streams.
    std::uint64_t z = masterSeed + (static_cast<std::uint64_t>(rpIndex) + 1) * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

// ===========================================================================
// Chaos source

ChaosSource::ChaosSource(SnapshotSource& inner, FaultPlan plan)
    : inner_(&inner), plan_(std::move(plan)) {}

std::vector<std::string> ChaosSource::listPoints(std::uint64_t round) {
    // Faults make points unreachable, not unadvertised: the relying party
    // still knows the point exists and fails to fetch it.
    return inner_->listPoints(round);
}

void ChaosSource::recordHistory(const std::string& pointUri, std::uint64_t round,
                                const FileMap* honest) {
    auto& perRound = history_[pointUri];
    if (honest != nullptr) perRound.emplace(round, *honest);
    // Trim anything older than the stall horizon: serve-stale pins are
    // bounded, so soak memory stays bounded too.
    while (!perRound.empty() && perRound.begin()->first + plan_.stallHorizon < round) {
        perRound.erase(perRound.begin());
    }
}

std::optional<FileMap> ChaosSource::fetchPoint(const std::string& pointUri, std::uint64_t round,
                                               std::uint32_t attempt) {
    std::optional<FileMap> honest = inner_->fetchPoint(pointUri, round, attempt);
    if (attempt == 0) {
        recordHistory(pointUri, round, honest.has_value() ? &*honest : nullptr);
    }

    // Unreachability faults first: they swallow the whole attempt.
    for (const Fault& f : plan_.faults) {
        if (f.pointUri != pointUri || !f.activeAt(round, attempt)) continue;
        if (f.kind == FaultKind::DropPoint) {
            ++applications_;
            return std::nullopt;
        }
        if (f.kind == FaultKind::Flap) {
            const std::uint64_t halfPeriod = std::max<std::uint64_t>(1, f.param);
            if (((round - f.round) / halfPeriod) % 2 == 0) {  // down first
                ++applications_;
                return std::nullopt;
            }
        }
    }
    if (!honest.has_value()) return std::nullopt;

    FileMap files = std::move(*honest);

    // Mirror-world overlays replace the whole point state: the point is
    // reachable but serves an attacker-chosen snapshot.
    const auto ovIt = overlays_.find({pointUri, round});
    if (ovIt != overlays_.end()) {
        files = ovIt->second;
        ++overlayApplications_;
    }

    // Stale pinning replaces the whole point state before file-level faults.
    for (const Fault& f : plan_.faults) {
        if (f.pointUri != pointUri || !f.activeAt(round, attempt)) continue;
        if (f.kind != FaultKind::ServeStale) continue;
        const auto histIt = history_.find(pointUri);
        if (histIt == history_.end()) continue;
        const auto roundIt = histIt->second.find(f.param);
        if (roundIt == histIt->second.end()) continue;  // pin round unrecorded
        files = roundIt->second;
        ++applications_;
    }

    // File-level faults.
    for (const Fault& f : plan_.faults) {
        if (f.pointUri != pointUri || !f.activeAt(round, attempt)) continue;
        switch (f.kind) {
            case FaultKind::WithholdManifest:
                if (files.erase(kManifestName) > 0) ++applications_;
                break;
            case FaultKind::DropFile:
                if (files.erase(f.filename) > 0) ++applications_;
                break;
            case FaultKind::Corrupt: {
                const auto it = files.find(f.filename);
                if (it != files.end() && !it->second.empty()) {
                    const std::uint64_t bit = f.param % (it->second.size() * 8);
                    it->second[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
                    ++applications_;
                }
                break;
            }
            case FaultKind::Truncate: {
                const auto it = files.find(f.filename);
                if (it != files.end() && it->second.size() > f.param) {
                    it->second.resize(f.param);
                    ++applications_;
                }
                break;
            }
            case FaultKind::OversizedObject:
                // Replaces (or plants) the file with param bytes of seeded
                // garbage — the CURE oversized/malformed-object class. The
                // blob depends only on (param, filename): identical across
                // attempts and across --plan replays.
                files[f.filename] = garbagePayload(f);
                ++applications_;
                break;
            case FaultKind::InjectJunk:
                // Plants an extra file the manifest never logged. An RP that
                // alarms on it is over-triggering: packs use this as the
                // built-in false-positive probe.
                files[f.filename] = garbagePayload(f);
                ++applications_;
                break;
            case FaultKind::ChainGraft: {
                // Swaps a preserved manifest's bytes for preserved manifest
                // #param's from the same point (absent source = dropped):
                // a cycle/cut in the hash chain that only the RP's
                // horizontal walk — not the fetch probe — can see.
                const auto dst = files.find(f.filename);
                if (dst != files.end()) {
                    const auto src = files.find(preservedManifestName(f.param));
                    if (src != files.end() && src->second != dst->second) {
                        dst->second = src->second;
                    } else {
                        files.erase(dst);
                    }
                    ++applications_;
                }
                break;
            }
            case FaultKind::DropPoint:
            case FaultKind::ServeStale:
            case FaultKind::Flap:
                break;  // handled above (kLast aliases ChainGraft)
        }
    }
    return files;
}

void ChaosSource::setOverlay(const std::string& pointUri, std::uint64_t round, FileMap files) {
    overlays_[{pointUri, round}] = std::move(files);
}

// ===========================================================================
// Legacy single-snapshot injectors

bool dropFile(Snapshot& snap, const std::string& pointUri, const std::string& filename) {
    const auto it = snap.points.find(pointUri);
    if (it == snap.points.end()) return false;
    return it->second.erase(filename) > 0;
}

bool corruptFile(Snapshot& snap, const std::string& pointUri, const std::string& filename,
                 std::size_t byteIndex) {
    const auto it = snap.points.find(pointUri);
    if (it == snap.points.end()) return false;
    const auto fit = it->second.find(filename);
    if (fit == it->second.end() || fit->second.empty()) return false;
    fit->second[byteIndex % fit->second.size()] ^= 0x01;
    return true;
}

bool truncateFile(Snapshot& snap, const std::string& pointUri, const std::string& filename,
                  std::size_t keepBytes) {
    const auto it = snap.points.find(pointUri);
    if (it == snap.points.end()) return false;
    const auto fit = it->second.find(filename);
    if (fit == it->second.end() || fit->second.size() <= keepBytes) return false;
    fit->second.resize(keepBytes);
    return true;
}

bool serveStalePoint(Snapshot& snap, const Snapshot& stale, const std::string& pointUri) {
    const FileMap* old = stale.point(pointUri);
    if (old == nullptr) return false;
    snap.points[pointUri] = *old;
    return true;
}

std::optional<CorruptionReceipt> corruptRandomFile(Snapshot& snap, Rng& rng) {
    std::vector<std::pair<std::string, std::string>> all;
    for (const auto& [uri, files] : snap.points) {
        for (const auto& [name, contents] : files) {
            if (!contents.empty()) all.emplace_back(uri, name);
        }
    }
    if (all.empty()) return std::nullopt;
    const auto& victim = all[static_cast<std::size_t>(rng.nextBelow(all.size()))];
    Bytes& bytes = snap.points[victim.first][victim.second];
    // nextBelow is rejection-sampled: no modulo bias, and the index is the
    // one actually flipped — callers can log it and replay the mutation.
    const std::size_t byteIndex = static_cast<std::size_t>(rng.nextBelow(bytes.size()));
    bytes[byteIndex] ^= 0x01;
    return CorruptionReceipt{victim.first, victim.second, byteIndex};
}

}  // namespace rpkic
