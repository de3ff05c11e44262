// Bounded-use many-time signatures (XMSS-style): a Merkle tree over 2^h
// WOTS one-time public keys.
//
// This is the library's public signing API. A Signer can produce exactly
// 2^h signatures; when it runs out it throws KeyExhaustedError, which is the
// in-repo trigger for the paper's key-rollover procedure (Appendix A).
//
// Security rests on SHA-256 preimage/collision resistance only; there is no
// number theory anywhere in the repository.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "crypto/merkle.hpp"
#include "crypto/wots.hpp"
#include "util/bytes.hpp"

namespace rpkic {

/// Verification key. Value type; serializes to 66 bytes.
struct PublicKey {
    Digest root;        // Merkle root over the WOTS leaf public keys
    Digest publicSeed;  // domain-separation seed for the chain function
    std::uint8_t height = 0;

    auto operator<=>(const PublicKey&) const = default;

    Bytes toBytes() const;
    static PublicKey fromBytes(ByteView data);
};

/// Parsed signature. Usually handled in serialized form (Bytes).
struct SignatureData {
    std::uint32_t leafIndex = 0;
    wots::Signature wotsSignature{};
    MerklePath authPath;

    Bytes toBytes() const;
    static SignatureData fromBytes(ByteView data);
};

/// The signing half of a keypair. Movable, non-copyable (it holds the
/// secret seed and a monotone one-time-key counter; copying would invite
/// catastrophic one-time-key reuse).
class Signer {
public:
    /// Deterministically generates a keypair from a 64-bit seed. `height`
    /// in [1, 20]; the key can produce 2^height signatures. Generation cost
    /// is O(2^height) hash work.
    static Signer generate(std::uint64_t seed, int height);

    Signer(Signer&&) = default;
    Signer& operator=(Signer&&) = default;
    Signer(const Signer&) = delete;
    Signer& operator=(const Signer&) = delete;

    const PublicKey& publicKey() const { return publicKey_; }

    /// Signs an arbitrary message. Throws KeyExhaustedError once all
    /// 2^height one-time keys have been used.
    Bytes sign(ByteView message);
    Bytes sign(std::string_view message);

    std::uint64_t signaturesRemaining() const { return tree_.leafCount() - nextLeaf_; }

    /// Deliberately duplicates the signer, INCLUDING its one-time-key
    /// counter. Both copies will sign with the same leaves — exactly what a
    /// mirror-world attacker does when it maintains diverging publication
    /// histories under one key (paper §3.3). Never use outside adversarial
    /// simulation.
    Signer unsafeCloneForAttackSimulation() const {
        return Signer(secretSeed_, publicKey_, tree_, nextLeaf_);
    }

private:
    Signer(Digest secretSeed, PublicKey pub, MerkleTree tree);
    Signer(const Digest& secretSeed, const PublicKey& pub, const MerkleTree& tree,
           std::uint64_t nextLeaf)
        : secretSeed_(secretSeed), publicKey_(pub), tree_(tree), nextLeaf_(nextLeaf) {}

    Digest secretSeed_;
    PublicKey publicKey_;
    MerkleTree tree_;
    std::uint64_t nextLeaf_ = 0;
};

/// Verifies `signature` over `message` under `key`. Returns false (never
/// throws) on malformed signatures, so callers can treat corrupted
/// repository bytes uniformly as invalid.
bool verify(const PublicKey& key, ByteView message, ByteView signature);
bool verify(const PublicKey& key, std::string_view message, ByteView signature);

}  // namespace rpkic
