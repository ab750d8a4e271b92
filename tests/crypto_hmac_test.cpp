#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "crypto/signature.hpp"

namespace fortress::crypto {
namespace {

std::string hmac_hex(BytesView key, BytesView msg) {
  Digest d = hmac_sha256(key, msg);
  return to_hex(BytesView(d.data(), d.size()));
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex(key, bytes_of("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2: short key "Jefe".
TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_hex(bytes_of("Jefe"), bytes_of("what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3: 20-byte 0xaa key, 50 bytes of 0xdd data.
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(hmac_hex(key, data),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 test case 4: incrementing key, 50 bytes of 0xcd.
TEST(HmacTest, Rfc4231Case4) {
  Bytes key;
  for (std::uint8_t b = 0x01; b <= 0x19; ++b) key.push_back(b);
  Bytes data(50, 0xcd);
  EXPECT_EQ(hmac_hex(key, data),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

// RFC 4231 test case 6: 131-byte key (longer than block size).
TEST(HmacTest, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_hex(key, bytes_of("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// RFC 4231 test case 7: long key and long data.
TEST(HmacTest, Rfc4231Case7LongKeyLongData) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_hex(key,
                     bytes_of("This is a test using a larger than block-size "
                              "key and a larger than block-size data. The key "
                              "needs to be hashed before being used by the "
                              "HMAC algorithm.")),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacTest, KeySensitivity) {
  Bytes msg = bytes_of("message");
  EXPECT_NE(hmac_sha256(bytes_of("key1"), msg),
            hmac_sha256(bytes_of("key2"), msg));
}

TEST(HmacTest, MessageSensitivity) {
  Bytes key = bytes_of("key");
  EXPECT_NE(hmac_sha256(key, bytes_of("msg1")),
            hmac_sha256(key, bytes_of("msg2")));
}

TEST(HmacTest, ExactBlockSizeKeyNotHashed) {
  // A 64-byte key is used as-is; a 65-byte key is hashed first. They must
  // produce different results even when the 65-byte key begins with the
  // 64-byte key.
  Bytes key64(64, 0x7a);
  Bytes key65(65, 0x7a);
  Bytes msg = bytes_of("m");
  EXPECT_NE(hmac_sha256(key64, msg), hmac_sha256(key65, msg));
}

TEST(HmacTest, EmptyKeyAndMessage) {
  // HMAC-SHA256("", "") — well-known value.
  EXPECT_EQ(hmac_hex(Bytes{}, Bytes{}),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// RFC 2104 HMAC built here from streaming Sha256 only, independent of
// HmacKey: H((K ^ opad) || H((K ^ ipad) || m)), K hashed first when longer
// than a block and zero-padded to one block.
Digest reference_hmac(BytesView key, BytesView msg) {
  Bytes k(key.begin(), key.end());
  if (k.size() > Sha256::kBlockSize) {
    const Digest kd = Sha256::hash(k);
    k.assign(kd.begin(), kd.end());
  }
  k.resize(Sha256::kBlockSize, 0);
  Bytes ipad(k), opad(k);
  for (auto& b : ipad) b ^= 0x36;
  for (auto& b : opad) b ^= 0x5c;
  Sha256 inner;
  inner.update(ipad);
  inner.update(msg);
  const Digest inner_digest = inner.finish();
  Sha256 outer;
  outer.update(opad);
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Bytes random_bytes(Rng& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(HmacKeyTest, MatchesOneShotHmacAcrossLengths) {
  // The precomputed-midstate schedule must be bit-identical to the one-shot
  // HMAC for every (key length, message length) shape: short/long keys
  // (long keys get pre-hashed), empty through multi-block messages, and a
  // reused schedule must not accumulate state between mac() calls.
  const std::size_t key_lens[] = {0, 1, 31, 64, 65, 200};
  const std::size_t msg_lens[] = {0, 1, 55, 56, 64, 100, 300};
  for (std::size_t kl : key_lens) {
    Bytes key(kl, static_cast<std::uint8_t>(0xa5));
    HmacKey schedule((BytesView(key)));
    for (std::size_t ml : msg_lens) {
      Bytes msg(ml, static_cast<std::uint8_t>(0x3c));
      EXPECT_EQ(schedule.mac(msg), hmac_sha256(key, msg))
          << "key len " << kl << " msg len " << ml;
      EXPECT_EQ(schedule.mac(msg), reference_hmac(key, msg))
          << "key len " << kl << " msg len " << ml;
    }
    // Repeat the first message: the schedule is stateless across calls.
    Bytes msg(5, static_cast<std::uint8_t>(0x3c));
    EXPECT_EQ(schedule.mac(msg), schedule.mac(msg));
  }
}

// Blocks one mac() call compresses, read from the per-thread counter.
std::uint64_t blocks_for_mac(const HmacKey& key, BytesView msg,
                             Digest& out) {
  const std::uint64_t before = kernel::blocks_compressed();
  out = key.mac(msg);
  return kernel::blocks_compressed() - before;
}

// Blocks a memo miss compresses: the message's whole blocks, a 1-2 block
// padded inner tail, and one outer block.
std::uint64_t miss_blocks(std::size_t len) {
  return len / 64 + (len % 64 < 56 ? 1 : 2) + 1;
}

// Message lengths 0-300 plus the padding and memo-cap boundaries.
std::vector<std::size_t> memo_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t len = 0; len <= 300; ++len) lens.push_back(len);
  for (std::size_t len : {55u, 56u, 63u, 64u, 119u, 120u}) lens.push_back(len);
  const std::size_t cap = HmacKey::kMemoMaxMessage;
  for (std::size_t len : {cap - 1, cap, cap + 1}) lens.push_back(len);
  return lens;
}

// Every length is MACed under a fresh random key (0-100 bytes) twice: the
// first call must miss the memo and compute, the second must be served
// from the memo (no block compressed) when the message fits under the cap.
// Both must equal the reference.
TEST(HmacMemoTest, MatchesRfc2104ReferenceOnMissAndHit) {
  Rng rng(0x2104);
  for (std::size_t len : memo_lengths()) {
    const Bytes key = random_bytes(rng, rng.below(101));
    const Bytes msg = random_bytes(rng, len);
    const Digest want = reference_hmac(key, msg);
    const HmacKey schedule{BytesView(key)};
    Digest got;
    EXPECT_EQ(blocks_for_mac(schedule, msg, got), miss_blocks(len))
        << "len " << len;
    EXPECT_EQ(got, want) << "miss, len " << len;
    const std::uint64_t again = blocks_for_mac(schedule, msg, got);
    EXPECT_EQ(again, len <= HmacKey::kMemoMaxMessage ? 0 : miss_blocks(len))
        << "len " << len;
    EXPECT_EQ(got, want) << "hit, len " << len;
  }
}

// More distinct messages than the table has entries evict earlier ones;
// querying them again recomputes, and still returns the reference MAC.
TEST(HmacMemoTest, EvictedEntriesRecomputeCorrectly) {
  Rng rng(0xE71C7);
  const Bytes key = random_bytes(rng, 32);
  const HmacKey schedule{BytesView(key)};
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < 4 * HmacKey::kMemoEntries; ++i) {
    msgs.push_back(random_bytes(rng, 1 + rng.below(HmacKey::kMemoMaxMessage)));
    EXPECT_EQ(schedule.mac(msgs.back()), reference_hmac(key, msgs.back()));
  }
  std::uint64_t recomputed = 0;
  for (const Bytes& msg : msgs) {
    Digest got;
    recomputed += blocks_for_mac(schedule, msg, got);
    EXPECT_EQ(got, reference_hmac(key, msg));
  }
  EXPECT_GT(recomputed, 0u);
}

// A memoized MAC under one key is never served for another key.
TEST(HmacMemoTest, TwoKeysSameMessageDifferentTags) {
  const Bytes msg = bytes_of("one message, two signers");
  const Bytes key_a = bytes_of("key-a"), key_b = bytes_of("key-b");
  const HmacKey a{BytesView(key_a)}, b{BytesView(key_b)};
  const Digest tag_a = a.mac(msg);
  const Digest tag_b = b.mac(msg);
  EXPECT_NE(tag_a, tag_b);
  EXPECT_EQ(tag_a, reference_hmac(key_a, msg));
  EXPECT_EQ(tag_b, reference_hmac(key_b, msg));
  EXPECT_EQ(a.mac(msg), tag_a);
  EXPECT_EQ(b.mac(msg), tag_b);
}

// After a sign (which fills the memo) and a verify served from it, a
// flipped message byte and, separately, a flipped tag byte must fail.
TEST(HmacMemoTest, TamperAfterHitFailsVerification) {
  const HmacKey schedule(bytes_of("tamper-key"));
  Bytes msg = bytes_of("signed response core");
  Digest tag = schedule.mac(msg);
  Digest got;
  ASSERT_EQ(blocks_for_mac(schedule, msg, got), 0u);
  EXPECT_TRUE(KeyRegistry::verify_tag_with(schedule, msg, tag));

  Bytes bad_msg = msg;
  bad_msg[3] ^= 0x01;
  EXPECT_FALSE(KeyRegistry::verify_tag_with(schedule, bad_msg, tag));
  Digest bad_tag = tag;
  bad_tag[17] ^= 0x80;
  EXPECT_FALSE(KeyRegistry::verify_tag_with(schedule, msg, bad_tag));
  EXPECT_TRUE(KeyRegistry::verify_tag_with(schedule, msg, tag));
}

// Each thread has its own memo; all of them compute the same digests.
TEST(HmacMemoTest, FourThreadsComputeIdenticalDigests) {
  auto run = [] {
    Rng rng(0x7EAD);
    std::vector<Digest> out;
    for (std::size_t len : memo_lengths()) {
      const Bytes key = random_bytes(rng, rng.below(101));
      const Bytes msg = random_bytes(rng, len);
      const HmacKey schedule{BytesView(key)};
      out.push_back(schedule.mac(msg));
      out.push_back(schedule.mac(msg));
    }
    return out;
  };
  std::vector<std::vector<Digest>> results(4);
  std::vector<std::thread> threads;
  for (auto& r : results) threads.emplace_back([&r, &run] { r = run(); });
  for (auto& t : threads) t.join();

  Rng rng(0x7EAD);
  std::vector<Digest> want;
  for (std::size_t len : memo_lengths()) {
    const Bytes key = random_bytes(rng, rng.below(101));
    const Bytes msg = random_bytes(rng, len);
    want.push_back(reference_hmac(key, msg));
    want.push_back(want.back());
  }
  for (const auto& r : results) EXPECT_EQ(r, want);
}

TEST(DeriveKeyTest, DistinctLabelsDistinctKeys) {
  Bytes master = bytes_of("master-secret");
  Digest a = derive_key(master, bytes_of("purpose-a"));
  Digest b = derive_key(master, bytes_of("purpose-b"));
  EXPECT_NE(a, b);
}

TEST(DeriveKeyTest, Deterministic) {
  Bytes master = bytes_of("master-secret");
  EXPECT_EQ(derive_key(master, bytes_of("x")), derive_key(master, bytes_of("x")));
}

}  // namespace
}  // namespace fortress::crypto
