#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "crypto/sha256_constants.hpp"
#include "crypto/sha256_kernel.hpp"

namespace fortress::crypto {

namespace {

constexpr std::size_t kBlock = Sha256::kBlockSize;

void store_be32x8(const std::uint32_t words[8], std::uint8_t out[32]) {
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<std::uint8_t>(words[i] >> 24);
    out[i * 4 + 1] = static_cast<std::uint8_t>(words[i] >> 16);
    out[i * 4 + 2] = static_cast<std::uint8_t>(words[i] >> 8);
    out[i * 4 + 3] = static_cast<std::uint8_t>(words[i]);
  }
}

struct MemoEntry {
  std::uint64_t hash = 0;
  std::uint32_t len = UINT32_MAX;  // never a memoized length: empty slot
  std::array<std::uint32_t, 16> mid{};
  std::uint8_t msg[HmacKey::kMemoMaxMessage];
  Digest tag;
};
using Memo = std::array<MemoEntry, HmacKey::kMemoEntries>;
static_assert(sizeof(Memo) <= 16 * 1024);
static_assert(HmacKey::kMemoEntries == 64, "mac() slots by 6 hash bits");

Memo& memo() {
  thread_local std::unique_ptr<Memo> table;
  if (!table) table = std::make_unique<Memo>();
  return *table;
}

/// Multiply-xor hash over both midstates' first words, the length and the
/// message words; the slot is its top 6 bits. Only spreads entries: a hit
/// still compares every byte.
std::uint64_t memo_hash(const std::array<std::uint32_t, 16>& mid,
                        BytesView message) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = ((std::uint64_t{mid[0]} << 32) | mid[8]) ^ message.size();
  std::size_t i = 0;
  for (; i + 8 <= message.size(); i += 8) {
    std::uint64_t word;
    std::memcpy(&word, message.data() + i, 8);
    h = (h ^ word) * kMul;
  }
  if (i < message.size()) {
    std::uint64_t word = 0;
    std::memcpy(&word, message.data() + i, message.size() - i);
    h = (h ^ word) * kMul;
  }
  return (h ^ (h >> 32)) * kMul;
}

}  // namespace

HmacKey::HmacKey(BytesView key) {
  std::array<std::uint8_t, kBlock> key_block{};
  if (key.size() > kBlock) {
    Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }

  // mid_ = SHA-256 IV compressed over (key ^ ipad) in words 0-7 and over
  // (key ^ opad) in words 8-15.
  for (const auto& [pad, offset] : {std::pair{0x36, 0}, std::pair{0x5c, 8}}) {
    std::array<std::uint8_t, kBlock> block;
    for (std::size_t i = 0; i < kBlock; ++i) {
      block[i] = static_cast<std::uint8_t>(key_block[i] ^ pad);
    }
    std::copy(kernel::kSha256Init.begin(), kernel::kSha256Init.end(),
              mid_.begin() + offset);
    kernel::compress_blocks(mid_.data() + offset, block.data(), 1);
  }
}

Digest HmacKey::mac(BytesView message) const {
  if (message.size() > kMemoMaxMessage) return compute(message);
  const std::uint64_t hash = memo_hash(mid_, message);
  MemoEntry& entry = memo()[hash >> 58];
  if (entry.hash == hash && entry.len == message.size() && entry.mid == mid_ &&
      (message.empty() ||
       std::memcmp(entry.msg, message.data(), message.size()) == 0)) {
    return entry.tag;
  }
  entry.tag = compute(message);
  entry.hash = hash;
  entry.len = static_cast<std::uint32_t>(message.size());
  entry.mid = mid_;
  if (!message.empty()) std::memcpy(entry.msg, message.data(), message.size());
  return entry.tag;
}

Digest HmacKey::compute(BytesView message) const {
  // Inner hash: the ipad midstate over the message's whole blocks in place,
  // then one padded tail (leftover bytes, 0x80, zeros, and the bit length of
  // the ipad block plus the message) of one or two blocks.
  std::uint32_t state[8];
  std::copy(mid_.begin(), mid_.begin() + 8, state);
  const std::size_t whole = message.size() / kBlock;
  kernel::compress_blocks(state, message.data(), whole);
  const std::size_t rem = message.size() - whole * kBlock;
  std::uint8_t tail[2 * kBlock] = {};
  if (rem > 0) std::memcpy(tail, message.data() + whole * kBlock, rem);
  tail[rem] = 0x80;
  const std::size_t tail_blocks = rem < kBlock - 8 ? 1 : 2;
  const std::uint64_t bits = (kBlock + message.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_blocks * kBlock - 1 - i] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  kernel::compress_blocks(state, tail, tail_blocks);

  // Outer hash: one block from the opad midstate, digest ‖ 0x80 ‖ 0… ‖ the
  // bit length 768 = 0x0300 of the opad block plus the digest.
  std::uint8_t outer[kBlock] = {};
  store_be32x8(state, outer);
  outer[Sha256::kDigestSize] = 0x80;
  outer[kBlock - 2] = 0x03;
  std::copy(mid_.begin() + 8, mid_.end(), state);
  kernel::compress_blocks(state, outer, 1);
  Digest out;
  store_be32x8(state, out.data());
  return out;
}

Digest hmac_sha256(BytesView key, BytesView message) {
  return HmacKey(key).mac(message);
}

Digest derive_key(BytesView key, BytesView label) {
  return hmac_sha256(key, label);
}

}  // namespace fortress::crypto
