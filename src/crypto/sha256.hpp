// sha256.hpp — SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC signatures and key derivation in the
// FORTRESS protocol stack. Streaming interface plus one-shot helper.
// Block compression routes through the runtime-dispatched kernel tiers
// (sha256_kernel.hpp); every tier is bit-identical to the scalar
// reference, so digests never depend on the host CPU.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace fortress::crypto {

/// A 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Streaming SHA-256 context.
///
/// Usage:
///   Sha256 h;
///   h.update(part1); h.update(part2);
///   Digest d = h.finish();
/// After finish() the context must not be reused (call reset() first).
class Sha256 {
 public:
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kDigestSize = 32;

  Sha256() { reset(); }

  /// Restore the initial state so the context can hash a new message.
  void reset();

  /// Absorb `data` into the hash state.
  void update(BytesView data);

  /// Finalize and return the digest. The context is left in a finished
  /// state; further update() calls are a contract violation.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

/// Digest as a Bytes buffer (for wire encoding).
Bytes digest_bytes(const Digest& d);

}  // namespace fortress::crypto
