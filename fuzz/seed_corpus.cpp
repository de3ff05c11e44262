#include "fuzz/seed_corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "adversary/pack.hpp"
#include "crypto/sha256.hpp"
#include "crypto/xmss.hpp"
#include "fleet/vote.hpp"
#include "obs/obs.hpp"
#include "rp/durable_store.hpp"
#include "rpki/objects.hpp"
#include "serve/epoch.hpp"
#include "util/errors.hpp"
#include "util/vfs.hpp"

namespace rpkic::fuzz {

namespace {

IpPrefix pfx(const char* s) {
    return IpPrefix::parse(s);
}

}  // namespace

std::vector<Bytes> sampleObjects() {
    std::vector<Bytes> out;

    ResourceCert c;
    c.subjectName = "Sprint";
    c.uri = "rpki://arin/sprint.cer";
    c.serial = 42;
    c.subjectKey = Signer::generate(7, 2).publicKey();
    c.parentUri = "rpki://arin/arin.cer";
    c.pubPointUri = "rpki://sprint/";
    c.resources = ResourceSet::ofPrefixes({pfx("63.160.0.0/12"), pfx("2c0f::/16")});
    c.resources.addAsnRange(100, 200);
    c.signature = {1, 2, 3, 4, 5};
    out.push_back(c.encode());

    Roa r;
    r.uri = "rpki://sprint/as7341.roa";
    r.serial = 9;
    r.parentUri = c.uri;
    r.asn = 7341;
    r.prefixes = {{pfx("63.168.93.0/24"), 24}, {pfx("2c0f:f668::/32"), 48}};
    r.signature = {9};
    out.push_back(r.encode());

    Manifest m;
    m.issuerRcUri = c.uri;
    m.pubPointUri = "rpki://sprint/";
    m.number = 17;
    m.entries = {{"a.roa", sha256("a"), 3}, {"b.cer", sha256("b"), 17}};
    m.prevManifestHash = sha256("prev");
    m.parentManifestHash = sha256("parent");
    m.highestChildSerial = 12;
    m.tag = ManifestTag::PostRollover;
    m.rolloverTargetUri = "rpki://arin/sprint-v2.cer";
    m.rolloverTargetRcHash = sha256("v2");
    m.signature = {5, 5};
    out.push_back(m.encode());

    Crl crl;
    crl.issuerRcUri = c.uri;
    crl.revokedSerials = {4, 8, 15, 16, 23, 42};
    crl.signature = {1};
    out.push_back(crl.encode());

    DeadObject d;
    d.rcUri = "rpki://sprint/etb.cer";
    d.rcSerial = 5;
    d.rcHash = sha256("rc");
    d.signerManifestHash = sha256("mft");
    d.childDeadHashes = {sha256("c1"), sha256("c2")};
    d.fullRevocation = false;
    d.removedResources = ResourceSet::ofPrefixes({pfx("63.174.16.0/20")});
    d.signature = {7, 7, 7};
    out.push_back(d.encode());

    RollObject roll;
    roll.rcUri = c.uri;
    roll.rcSerial = 42;
    roll.postRolloverManifestHash = sha256("post");
    roll.signature = {2};
    out.push_back(roll.encode());

    HintsFile h;
    h.entries = {{"a.roa", "a.roa.~5", sha256("v1"), 2, 5}};
    out.push_back(h.encode());

    return out;
}

std::vector<Bytes> sampleChainPrograms() {
    // Opcode table (see fuzz_manifest_chain.cpp): after the two header
    // bytes [length, base], ops come in (op, index, arg) triples:
    //   op%6 == 0  bump number        (NumberGap at index)
    //   op%6 == 1  corrupt prevHash   (HashMismatch at index)
    //   op%6 == 2  tamper entry body  (HashMismatch at index+1)
    //   op%6 == 3  swap adjacent      (reorder)
    //   op%6 == 4  re-sign            (must NOT break the chain)
    //   op%6 == 5  drop manifest      (gap where the drop happened)
    return {
        {},                              // empty program -> empty chain
        {5, 2},                          // intact 5-chain, no mutations
        {6, 1, 0, 2, 1},                 // number bump at index 2
        {4, 0, 1, 1, 7},                 // prevHash corruption at index 1
        {4, 3, 2, 1, 12},                // body tamper breaks the NEXT link
        {4, 0, 4, 3, 9},                 // signature tamper: chain stays ok
        {8, 3, 3, 2, 0, 2, 1, 5},        // swap then body tamper
        {3, 0, 5, 1, 0},                 // drop the middle manifest
        {8, 1, 4, 0, 1, 0, 5, 2, 1, 6},  // sign + bump + corrupt combo
    };
}

std::vector<std::string> sampleStateTexts() {
    return {
        "",
        "# empty state\n",
        "# production RPKI sample\n"
        "79.139.96.0/19-20 AS43782\n"
        "79.139.96.0/24 AS51813\n"
        "2c0f:f668::/32 AS37600\n",
        "10.0.0.0/8 64500\n"          // bare ASN, no "AS" prefix
        "\n"
        "10.0.0.0/8 64500\n"          // duplicate: normalization must dedup
        "  # indented comment\n"
        "10.1.0.0/16-24 AS64501\n",
        "2001:db8::/32-48 AS4200000000\n",
    };
}

std::vector<Bytes> sampleWalImages() {
    // Each builder drives a real DurableStore over a MemVfs and captures
    // the resulting wal.log; a fuzz_wal input is those bytes behind a flag
    // byte (see fuzz_wal.cpp's input layout).
    auto text = [](const std::string& s) { return Bytes(s.begin(), s.end()); };
    // One commit: the store writes `image` or `delta`, whichever it asks for.
    auto commit = [&](rp::DurableStore& s, const std::string& image, const std::string& delta,
                      std::uint64_t meta) {
        s.commit({[&] { return text(image); }, [&] { return text(delta); }}, meta);
    };
    auto walOf = [&](std::uint32_t checkpointEvery, auto&& build) {
        vfs::MemVfs fs(/*tornSeed=*/1);
        obs::Registry registry;
        rp::StoreOptions opts;
        opts.checkpointEvery = checkpointEvery;
        opts.name = "seed";
        rp::DurableStore store(fs, "st", opts, &registry);
        store.open();
        build(store);
        return fs.exists(store.walPath()) ? fs.readFile(store.walPath()) : Bytes{};
    };
    // Flag bit 0: the WAL bytes are also planted as a leftover wal.tmp.
    auto withFlags = [](std::uint8_t flags, const Bytes& wal) {
        Bytes out;
        out.reserve(wal.size() + 1);
        out.push_back(flags);
        out.insert(out.end(), wal.begin(), wal.end());
        return out;
    };

    const Bytes empty = walOf(8, [](rp::DurableStore&) {});
    const Bytes single = walOf(8, [&](rp::DurableStore& s) {
        commit(s, "state-round-1", "unused", 1);
    });
    const Bytes imageThenDeltas = walOf(8, [&](rp::DurableStore& s) {
        commit(s, "alpha", "unused", 1);
        commit(s, "unused", "", 2);  // empty payloads are legal commits
        commit(s, "unused",
               "a much longer relying-party delta payload, "
               "so frames span more than one torn-write unit",
               3);
    });
    // checkpointEvery 2: image, delta, then an image commit (the fold)
    // that starts a fresh WAL at lsn 3, and a delta behind it.
    const Bytes fold = walOf(2, [&](rp::DurableStore& s) {
        commit(s, "image-1", "unused", 1);
        commit(s, "unused", "delta-2", 2);
        commit(s, "image-3", "unused", 3);
        commit(s, "unused", "delta-4", 4);
    });
    Bytes corruptImage = fold;
    corruptImage[22] ^= 0x41;  // inside the image frame's payload
    Bytes torn = imageThenDeltas;
    torn.resize(torn.size() - std::min<std::size_t>(torn.size(), 5));  // torn tail
    Bytes corrupt = imageThenDeltas;
    corrupt[corrupt.size() / 2] ^= 0x41;  // mid-frame bitflip
    Bytes outOfChain = single;  // an image frame where a delta belongs
    outOfChain.insert(outOfChain.end(), imageThenDeltas.begin(), imageThenDeltas.end());

    return {
        withFlags(0, empty),
        withFlags(0, single),
        withFlags(0, imageThenDeltas),
        withFlags(0, fold),
        withFlags(0, corruptImage),
        withFlags(0, torn),
        withFlags(0, corrupt),
        withFlags(0, outOfChain),
        withFlags(1, imageThenDeltas),  // beside a leftover wal.tmp
    };
}

std::vector<Bytes> sampleConsensusInputs() {
    fleet::VrpVote plain;
    plain.member = 3;
    plain.epoch = 7;
    plain.vrpHash = sha256("honest-world");
    plain.vrpCount = 1;
    plain.claims = {{"rpki://org/", 7, sha256("org-m7")}};

    fleet::VrpVote empty;
    empty.member = 0;
    empty.epoch = 0;
    empty.vrpHash = sha256("");

    fleet::VrpVote hostile;  // diverges from fuzz_consensus's honest quorum
    hostile.member = 3;
    hostile.epoch = 7;
    hostile.vrpHash = sha256("mirror-world");
    hostile.vrpCount = 9;
    hostile.claims = {{"rpki://evil/", 2, sha256("evil-m2")},
                      {"rpki://org/", 7, sha256("forged-m7")}};

    return {plain.encode(), empty.encode(), hostile.encode()};
}

std::vector<Bytes> sampleRtrInputs() {
    using namespace serve;
    const auto seed = [](std::initializer_list<std::uint8_t> chunks, const std::string& wire) {
        Bytes out{static_cast<std::uint8_t>(chunks.size())};
        out.insert(out.end(), chunks.begin(), chunks.end());
        out.insert(out.end(), wire.begin(), wire.end());
        return out;
    };
    const auto serialQuery = [](std::uint16_t session, std::uint32_t serial) {
        std::string q;
        appendSerialQuery(q, session, serial);
        return q;
    };
    std::string reset;
    appendResetQuery(reset);
    const std::string fromFirst = serialQuery(kRtrSession, kRtrFirstSerial);
    const std::string fromCurrent = serialQuery(kRtrSession, kRtrFirstSerial + 1);
    std::string routerError = reset;
    appendErrorReport(routerError, RtrError::CorruptData, fromFirst, "router gives up");
    std::string oldVersion = reset;
    oldVersion[0] = 0;
    return {
        seed({}, reset),
        seed({}, fromFirst),
        seed({}, fromCurrent),
        seed({}, serialQuery(kRtrSession, 12345)),
        seed({}, serialQuery(kRtrSession + 1, kRtrFirstSerial)),
        seed({5, 11}, reset + fromFirst + fromCurrent),
        seed({1}, fromFirst + reset),
        seed({}, routerError),
        seed({}, oldVersion),
    };
}

std::vector<std::pair<std::string, Bytes>> samplePackTlvSeeds() {
    std::vector<std::pair<std::string, Bytes>> out;
    for (const std::string& name : adversary::packNames()) {
        out.emplace_back(name, adversary::makePack(name)->tlvSeed());
    }
    return out;
}

std::vector<std::pair<std::string, Bytes>> samplePackChainPrograms() {
    std::vector<std::pair<std::string, Bytes>> out;
    for (const std::string& name : adversary::packNames()) {
        out.emplace_back(name, adversary::makePack(name)->chainProgramSeed());
    }
    return out;
}

std::vector<Bytes> loadCorpusDir(const std::string& dir) {
    namespace fs = std::filesystem;
    if (!fs::is_directory(dir)) {
        throw Error("corpus directory missing: " + dir);
    }
    std::vector<fs::path> paths;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file()) paths.push_back(entry.path());
    }
    std::sort(paths.begin(), paths.end());
    std::vector<Bytes> out;
    out.reserve(paths.size());
    for (const fs::path& p : paths) {
        std::ifstream in(p, std::ios::binary);
        if (!in) throw Error("cannot read corpus file: " + p.string());
        Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
        out.push_back(std::move(data));
    }
    return out;
}

}  // namespace rpkic::fuzz
