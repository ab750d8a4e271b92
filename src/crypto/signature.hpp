// signature.hpp — principal identities, signatures, and the trusted key
// registry.
//
// SUBSTITUTION NOTE (see DESIGN.md §2): the paper assumes a conventional PKI
// (clients know proxies' and servers' public keys through a trusted read-only
// name-server). The protocol properties FORTRESS needs from signatures are
// (a) a verifier can bind a message to the signer's identity and (b) nobody
// without the signer's secret can forge. We realize both with HMAC-SHA256
// under per-principal secrets held by a process-local trusted KeyRegistry,
// which plays the role of the CA/PKI. Verification is mediated by the
// registry exactly the way certificate validation is mediated by trusted
// roots. No number-theoretic assumption in the paper's analysis depends on
// the signature implementation.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace fortress::crypto {

/// Identity of a signing principal (client, proxy, server, name-server).
/// Value type; ordered so it can key maps.
struct PrincipalId {
  std::string name;

  auto operator<=>(const PrincipalId&) const = default;
};

/// A signature: signer identity + 32-byte tag over the message.
struct Signature {
  PrincipalId signer;
  Digest tag{};

  bool operator==(const Signature&) const = default;
};

/// Private signing capability for one principal. Move-only handle obtained
/// from KeyRegistry::enroll(); holding it is what "knowing the private key"
/// means in this substrate.
class SigningKey {
 public:
  SigningKey(const SigningKey&) = delete;
  SigningKey& operator=(const SigningKey&) = delete;
  SigningKey(SigningKey&&) = default;
  SigningKey& operator=(SigningKey&&) = default;

  const PrincipalId& id() const { return id_; }

  /// Sign `message` as this principal.
  Signature sign(BytesView message) const;

  /// The tag sign() would carry, without copying the signer name — for
  /// encoders that write the signer field themselves.
  Digest tag(BytesView message) const { return mac_.mac(message); }

 private:
  friend class KeyRegistry;
  SigningKey(PrincipalId id, HmacKey mac) : id_(std::move(id)), mac_(mac) {}

  PrincipalId id_;
  /// Precomputed HMAC schedule of the secret — signing costs two short
  /// hash tails, not a full key setup per message.
  HmacKey mac_;
};

/// The trusted root: generates per-principal secrets and verifies signatures.
///
/// One registry instance exists per simulated deployment (it stands in for
/// the PKI/CA infrastructure plus the trusted name-server's key directory).
/// It is deliberately NOT reachable by the simulated attacker: the paper's
/// attack model targets randomization keys, not the signature scheme.
class KeyRegistry {
 public:
  /// Create a registry with a master seed; all principal secrets derive
  /// deterministically from it.
  explicit KeyRegistry(std::uint64_t master_seed);

  /// Re-key the whole registry from a new master seed, dropping every
  /// enrollment. Existing SigningKey handles keep signing under the OLD
  /// secrets and stop verifying — holders must re-enroll. (The campaign
  /// trial arena deliberately does NOT use this: a pooled stack keeps its
  /// PKI across trials, see LiveSystem::reset.)
  void reset(std::uint64_t master_seed);

  /// Enroll a principal, returning its private signing key. Enrolling the
  /// same name twice returns a key with the same secret (idempotent).
  SigningKey enroll(const std::string& name);

  /// True iff `sig` is a valid signature by `sig.signer` over `message` and
  /// the signer is enrolled.
  bool verify(BytesView message, const Signature& sig) const;

  /// The precomputed verification schedule of an enrolled principal, or
  /// nullptr. The pointer is stable until reset() (enrollment never moves a
  /// schedule), so per-message verifiers — proxies checking server
  /// responses, SMR replicas checking peer ordering traffic — resolve each
  /// expected signer ONCE into a direct-indexed table and skip the
  /// per-message string-map lookup; see verify_with(). Accepts a borrowed
  /// name (no allocation — the MessageView verify path).
  const HmacKey* schedule_for(std::string_view name) const;

  /// Verify `sig` against an explicit schedule (obtained from
  /// schedule_for): the amortized-lookup half of the verify path. The
  /// CALLER asserts that `schedule` belongs to `sig.signer` — pair this
  /// with an identity check against the expected principal.
  static bool verify_with(const HmacKey& schedule, BytesView message,
                          const Signature& sig);

  /// Tag-level verify for borrowed signatures (MessageView): same
  /// acceptance as verify()/verify_with() without materializing a
  /// Signature. `tag` must be Digest-sized (anything else never verifies).
  ///
  /// BATCHING NOTE: verify_tag_with is the one verify path. Its MAC goes
  /// through HmacKey::mac, so a tag the same thread has just signed is
  /// checked against the memoized MAC instead of being recomputed (exact
  /// match only — see hmac.hpp). crypto::BatchVerifier stages jobs and
  /// computes their verdicts through this same function, so staging
  /// changes only when a MAC is computed, never which (message, signer,
  /// tag) triples are accepted (see batch.hpp).
  bool verify_tag(BytesView message, std::string_view signer,
                  BytesView tag) const;
  static bool verify_tag_with(const HmacKey& schedule, BytesView message,
                              BytesView tag);

  /// True iff a principal with this name has been enrolled.
  bool is_enrolled(std::string_view name) const;

  std::size_t enrolled_count() const { return index_.size(); }

 private:
  Digest secret_for(const std::string& name) const;

  /// Index slot for `name`, or npos. Binary search over the flat sorted
  /// index; probes with a borrowed name (no allocation).
  std::size_t find_slot(std::string_view name) const;

  /// HMAC schedule of the master secret: per-principal derivation pays only
  /// the label tail, which keeps re-keying a pooled campaign trial cheap.
  HmacKey master_key_;
  /// Per-principal verification schedules, precomputed at enrollment (the
  /// verify path runs once per protocol message). Stored as a flat sorted
  /// name index over a deque of schedules: lookup is a binary search in one
  /// contiguous array (a handful of principals — the cache beats the
  /// red-black tree it replaced), while the deque keeps schedule_for
  /// pointers stable across later enrollments, until reset().
  struct IndexEntry {
    std::string name;
    std::uint32_t slot;
  };
  std::vector<IndexEntry> index_;
  std::deque<HmacKey> schedules_;
};

}  // namespace fortress::crypto
