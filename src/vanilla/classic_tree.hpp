// An in-process operator console for a *classic* (current-spec) RPKI tree:
// creates authorities, issues RCs and ROAs, publishes manifests and CRLs,
// and performs the mutations behind the paper's case studies — deleting
// ROAs without revocation (CS2), overwriting an RC's resources (CS3),
// letting manifests go stale (CS4), and plain CRL revocation.
//
// Used by tests, the model generators (Table 2 census, trace), and the
// Table-3 policy experiment.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "crypto/xmss.hpp"
#include "rpki/objects.hpp"
#include "rpki/repository.hpp"

namespace rpkic::vanilla {

struct ClassicTreeOptions {
    std::uint64_t seed = 1;
    int signerHeight = 6;        ///< 2^h signatures per authority key
    Time manifestLifetime = 1;   ///< manifests must be republished every tick
};

class ClassicTree {
public:
    explicit ClassicTree(ClassicTreeOptions options = {});

    // --- structure -------------------------------------------------------
    /// Creates a root authority. Returns the node name. `signerHeight`
    /// overrides the default key capacity (0 = use options default); the
    /// census model sizes keys to each authority's issuance volume.
    std::string addTrustAnchor(const std::string& name, ResourceSet resources,
                               int signerHeight = 0);
    /// Creates `name` as a child of `parent`, issuing its RC.
    std::string addChild(const std::string& parent, const std::string& name,
                         ResourceSet resources, int signerHeight = 0);
    /// Issues a ROA in `issuer`'s publication point under filename
    /// "<label>.roa". Returns the filename.
    std::string addRoa(const std::string& issuer, const std::string& label, Asn asn,
                       std::vector<RoaPrefix> prefixes);

    // --- mutations (the paper's threat repertoire, §3.2.1) ---------------
    /// Case Study 2: delete a ROA file and stop logging it, without any
    /// revocation ceremony.
    void deleteRoa(const std::string& issuer, const std::string& label);
    /// Revokes a child's RC via the issuer's CRL (the RC file remains).
    void revokeChild(const std::string& parent, const std::string& childName);
    /// Case Study 3: overwrite the child's RC at the same URI with one for
    /// different resources (same key, higher serial).
    void overwriteChildResources(const std::string& parent, const std::string& childName,
                                 ResourceSet newResources);
    /// Case Study 4: freeze a node — its manifest/CRL stop being renewed,
    /// so they go stale once `manifestLifetime` passes.
    void freeze(const std::string& name);

    // --- publication ------------------------------------------------------
    /// Rebuilds CRL + manifest for every non-frozen node and writes all
    /// publication points into `repo`.
    void publish(Repository& repo, Time now);

    // --- introspection ----------------------------------------------------
    std::vector<ResourceCert> trustAnchors() const;
    const ResourceCert& certOf(const std::string& name) const;
    std::string pubPointOf(const std::string& name) const;
    std::vector<std::string> nodeNames() const;
    bool hasNode(const std::string& name) const;

private:
    struct Node {
        std::string name;
        std::string parentName;  // "" for trust anchors
        Signer signer;
        ResourceCert cert;
        std::string pubPointUri;
        std::map<std::string, Bytes> roaFiles;    // filename -> encoded ROA
        std::map<std::string, std::string> childFiles;  // child name -> filename
        std::vector<std::uint64_t> revokedSerials;
        std::uint64_t nextSerial = 1;
        std::uint64_t crlNumber = 0;
        std::uint64_t manifestNumber = 0;
        bool frozen = false;

        Node(std::string n, Signer s) : name(std::move(n)), signer(std::move(s)) {}
    };

    Node& node(const std::string& name);
    const Node& node(const std::string& name) const;
    Signer makeSigner(int signerHeight);
    void publishNode(Repository& repo, Node& n, Time now);

    ClassicTreeOptions options_;
    std::uint64_t nextSignerSeed_;
    std::map<std::string, Node> nodes_;
    std::vector<std::string> trustAnchorNames_;
};

}  // namespace rpkic::vanilla
