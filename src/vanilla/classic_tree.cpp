#include "vanilla/classic_tree.hpp"

#include "rpki/signing.hpp"
#include "util/errors.hpp"

namespace rpkic::vanilla {

namespace {
/// notAfter of every RC and ROA: effectively never expires.
constexpr Time kCertLifetime = 1000000;

std::string pubPointUriFor(const std::string& name) {
    return "rpki://" + name + "/";
}
std::string certFileFor(const std::string& name) {
    return name + ".cer";
}
std::string roaFileFor(const std::string& label) {
    return label + ".roa";
}
}  // namespace

ClassicTree::ClassicTree(ClassicTreeOptions options)
    : options_(options), nextSignerSeed_(options.seed * 0x9e3779b97f4a7c15ULL + 1) {}

Signer ClassicTree::makeSigner(int signerHeight) {
    const int height = signerHeight > 0 ? signerHeight : options_.signerHeight;
    return Signer::generate(nextSignerSeed_++, height);
}

ClassicTree::Node& ClassicTree::node(const std::string& name) {
    const auto it = nodes_.find(name);
    if (it == nodes_.end()) throw UsageError("no such node: " + name);
    return it->second;
}

const ClassicTree::Node& ClassicTree::node(const std::string& name) const {
    const auto it = nodes_.find(name);
    if (it == nodes_.end()) throw UsageError("no such node: " + name);
    return it->second;
}

std::string ClassicTree::addTrustAnchor(const std::string& name, ResourceSet resources,
                                        int signerHeight) {
    if (nodes_.count(name) > 0) throw UsageError("duplicate node name: " + name);
    Node n(name, makeSigner(signerHeight));
    n.pubPointUri = pubPointUriFor(name);
    n.cert.subjectName = name;
    n.cert.uri = "ta://" + certFileFor(name);
    n.cert.serial = 1;
    n.cert.subjectKey = n.signer.publicKey();
    n.cert.parentUri = "";
    n.cert.pubPointUri = n.pubPointUri;
    n.cert.resources = std::move(resources);
    n.cert.notBefore = 0;
    n.cert.notAfter = kCertLifetime;
    signObject(n.cert, n.signer);  // self-signed
    nodes_.emplace(name, std::move(n));
    trustAnchorNames_.push_back(name);
    return name;
}

std::string ClassicTree::addChild(const std::string& parent, const std::string& name,
                                  ResourceSet resources, int signerHeight) {
    if (nodes_.count(name) > 0) throw UsageError("duplicate node name: " + name);
    Node& p = node(parent);
    Node n(name, makeSigner(signerHeight));
    n.parentName = parent;
    n.pubPointUri = pubPointUriFor(name);
    n.cert.subjectName = name;
    n.cert.uri = p.pubPointUri + certFileFor(name);
    n.cert.serial = p.nextSerial++;
    n.cert.subjectKey = n.signer.publicKey();
    n.cert.parentUri = p.cert.uri;
    n.cert.pubPointUri = n.pubPointUri;
    n.cert.resources = std::move(resources);
    n.cert.notBefore = 0;
    n.cert.notAfter = kCertLifetime;
    signObject(n.cert, p.signer);
    p.childFiles[name] = certFileFor(name);
    nodes_.emplace(name, std::move(n));
    return name;
}

std::string ClassicTree::addRoa(const std::string& issuer, const std::string& label, Asn asn,
                                std::vector<RoaPrefix> prefixes) {
    Node& p = node(issuer);
    const std::string filename = roaFileFor(label);
    if (p.roaFiles.count(filename) > 0) throw UsageError("duplicate ROA label: " + label);
    Roa roa;
    roa.uri = p.pubPointUri + filename;
    roa.serial = p.nextSerial++;
    roa.parentUri = p.cert.uri;
    roa.asn = asn;
    roa.prefixes = std::move(prefixes);
    roa.notBefore = 0;
    roa.notAfter = kCertLifetime;
    signObject(roa, p.signer);
    p.roaFiles[filename] = roa.encode();
    return filename;
}

void ClassicTree::deleteRoa(const std::string& issuer, const std::string& label) {
    Node& p = node(issuer);
    if (p.roaFiles.erase(roaFileFor(label)) == 0) {
        throw UsageError("no such ROA: " + label + " at " + issuer);
    }
}

void ClassicTree::revokeChild(const std::string& parent, const std::string& childName) {
    Node& p = node(parent);
    const Node& c = node(childName);
    p.revokedSerials.push_back(c.cert.serial);
}

void ClassicTree::overwriteChildResources(const std::string& parent,
                                          const std::string& childName,
                                          ResourceSet newResources) {
    Node& p = node(parent);
    Node& c = node(childName);
    if (p.childFiles.count(childName) == 0) {
        throw UsageError(childName + " is not a child of " + parent);
    }
    c.cert.resources = std::move(newResources);
    c.cert.serial = p.nextSerial++;
    signObject(c.cert, p.signer);
}

void ClassicTree::freeze(const std::string& name) {
    node(name).frozen = true;
}

void ClassicTree::publish(Repository& repo, Time now) {
    for (auto& [name, n] : nodes_) {
        if (!n.frozen) publishNode(repo, n, now);
    }
}

void ClassicTree::publishNode(Repository& repo, Node& n, Time now) {
    // CRL.
    Crl crl;
    crl.issuerRcUri = n.cert.uri;
    crl.number = ++n.crlNumber;
    crl.thisUpdate = now;
    crl.nextUpdate = now + options_.manifestLifetime;
    crl.revokedSerials = n.revokedSerials;
    signObject(crl, n.signer);
    const Bytes crlBytes = crl.encode();

    // Collect current files: child RCs + ROAs + CRL.
    FileMap files;
    files[kCrlName] = crlBytes;
    for (const auto& [childName, filename] : n.childFiles) {
        files[filename] = node(childName).cert.encode();
    }
    for (const auto& [filename, bytes] : n.roaFiles) files[filename] = bytes;

    // Manifest over everything.
    Manifest m;
    m.issuerRcUri = n.cert.uri;
    m.pubPointUri = n.pubPointUri;
    m.number = ++n.manifestNumber;
    m.thisUpdate = now;
    m.nextUpdate = now + options_.manifestLifetime;
    for (const auto& [filename, bytes] : files) {
        m.entries.push_back({filename, fileHashOf(ByteView(bytes.data(), bytes.size())), 0});
    }
    signObject(m, n.signer);

    // Replace the publication point wholesale.
    repo.removePoint(n.pubPointUri);
    for (auto& [filename, bytes] : files) repo.putFile(n.pubPointUri, filename, std::move(bytes));
    repo.putFile(n.pubPointUri, kManifestName, m.encode());
}

std::vector<ResourceCert> ClassicTree::trustAnchors() const {
    std::vector<ResourceCert> out;
    out.reserve(trustAnchorNames_.size());
    for (const auto& name : trustAnchorNames_) out.push_back(node(name).cert);
    return out;
}

const ResourceCert& ClassicTree::certOf(const std::string& name) const {
    return node(name).cert;
}

std::string ClassicTree::pubPointOf(const std::string& name) const {
    return node(name).pubPointUri;
}

std::vector<std::string> ClassicTree::nodeNames() const {
    std::vector<std::string> out;
    out.reserve(nodes_.size());
    for (const auto& [name, n] : nodes_) out.push_back(name);
    return out;
}

bool ClassicTree::hasNode(const std::string& name) const {
    return nodes_.count(name) > 0;
}

}  // namespace rpkic::vanilla
