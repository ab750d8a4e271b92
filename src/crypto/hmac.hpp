// hmac.hpp — HMAC-SHA256 (RFC 2104 / FIPS 198-1).
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace fortress::crypto {

/// A precomputed HMAC-SHA256 key schedule: the SHA-256 midstates left after
/// absorbing the key's ipad and opad blocks. Used wherever one key
/// authenticates many messages (SigningKey, KeyRegistry::verify) and for
/// the registry's per-trial principal derivation. Copyable value type.
///
/// mac() computes each (schedule, message) HMAC at most once per thread
/// while it stays in a per-thread memo: a direct-mapped table of
/// kMemoEntries recent MACs over messages of at most kMemoMaxMessage bytes,
/// allocated on the thread's first mac() call and never larger than 16 KiB.
/// A lookup returns a stored tag only when both pad midstates, the message
/// length and every message byte are equal, so the memo never changes a
/// digest; it only saves the verify half of a sign-then-verify pair (both
/// run on a trial's one thread) and re-signs of an identical message.
/// A miss hashes straight from the midstates: the message's whole blocks in
/// place, one stack-built padded tail, and one fixed outer block.
class HmacKey {
 public:
  static constexpr std::size_t kMemoEntries = 64;
  static constexpr std::size_t kMemoMaxMessage = 144;

  /// Empty schedule (no pads absorbed — mac() on it is NOT the HMAC of
  /// any key). Exists so holders can be members/map values; assign a
  /// real HmacKey before use.
  HmacKey() = default;
  explicit HmacKey(BytesView key);

  /// HMAC-SHA256(key, message) — bit-identical to hmac_sha256.
  Digest mac(BytesView message) const;

 private:
  Digest compute(BytesView message) const;

  /// Inner (ipad) midstate in words 0-7, outer (opad) midstate in 8-15.
  std::array<std::uint32_t, 16> mid_{};
};

/// Compute HMAC-SHA256(key, message).
Digest hmac_sha256(BytesView key, BytesView message);

/// HKDF-style key derivation (simplified, single-block expand):
/// derive(key, label) = HMAC(key, label). Used to give each principal
/// independent per-purpose subkeys from one master secret.
Digest derive_key(BytesView key, BytesView label);

}  // namespace fortress::crypto
