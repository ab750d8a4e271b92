// BatchVerifier correctness: staged verification must accept EXACTLY the
// (schedule, message, tag) triples the one-shot verify_tag_with path
// accepts — that is the observational-invisibility contract the protocol
// stack relies on when it stages verifications at the machine boundary.
//
// The differential fuzz feeds >= 50k messages (valid tags, corrupted tags,
// truncated tags, wrong keys, absent schedules, every batch fill level)
// through both paths under every available dispatch tier. Message copies
// live in the verifier's arena; a run under -DFORTRESS_SANITIZE=address
// turns any over-read of an arena copy into a hard failure.
#include "crypto/batch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "crypto/sha256_kernel.hpp"
#include "crypto/signature.hpp"

namespace fortress::crypto {
namespace {

Bytes random_bytes(Rng& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

class ScopedTier {
 public:
  explicit ScopedTier(kernel::ShaTier tier)
      : saved_(kernel::active_tier()) {
    kernel::force_tier(tier);
  }
  ~ScopedTier() { kernel::force_tier(saved_); }

 private:
  kernel::ShaTier saved_;
};

std::vector<kernel::ShaTier> available_tiers() {
  std::vector<kernel::ShaTier> tiers;
  for (kernel::ShaTier t : {kernel::ShaTier::Scalar, kernel::ShaTier::Avx2,
                            kernel::ShaTier::ShaNi}) {
    if (kernel::tier_available(t)) tiers.push_back(t);
  }
  return tiers;
}

TEST(BatchVerifierTest, AcceptsValidMac) {
  HmacKey key(bytes_of("test-secret"));
  Bytes msg = bytes_of("hello fortress");
  Digest tag = key.mac(msg);

  BatchVerifier batch;
  std::size_t id = batch.enqueue(&key, msg, BytesView(tag.data(), tag.size()));
  EXPECT_TRUE(batch.verdict(id));
}

TEST(BatchVerifierTest, RejectsCorruptTagNullScheduleShortTag) {
  HmacKey key(bytes_of("test-secret"));
  Bytes msg = bytes_of("hello fortress");
  Digest tag = key.mac(msg);

  BatchVerifier batch;
  Digest bad = tag;
  bad[5] ^= 0x01;
  std::size_t corrupt =
      batch.enqueue(&key, msg, BytesView(bad.data(), bad.size()));
  std::size_t absent =
      batch.enqueue(nullptr, msg, BytesView(tag.data(), tag.size()));
  std::size_t short_tag = batch.enqueue(&key, msg, BytesView(tag.data(), 16));
  std::size_t ok = batch.enqueue(&key, msg, BytesView(tag.data(), tag.size()));
  batch.flush();
  EXPECT_FALSE(batch.verdict(corrupt));
  EXPECT_FALSE(batch.verdict(absent));
  EXPECT_FALSE(batch.verdict(short_tag));
  EXPECT_TRUE(batch.verdict(ok));
}

TEST(BatchVerifierTest, VerdictFlushesLazily) {
  HmacKey key(bytes_of("k"));
  Bytes msg = bytes_of("m");
  Digest tag = key.mac(msg);
  BatchVerifier batch;
  std::size_t id = batch.enqueue(&key, msg, BytesView(tag.data(), tag.size()));
  EXPECT_EQ(batch.pending(), 1u);
  EXPECT_TRUE(batch.verdict(id));
  EXPECT_EQ(batch.pending(), 0u);
}

TEST(BatchVerifierTest, ClearInvalidatesAndReuses) {
  HmacKey key(bytes_of("k"));
  Bytes msg = bytes_of("m");
  Digest tag = key.mac(msg);
  BatchVerifier batch;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 20; ++i) {
      std::size_t id =
          batch.enqueue(&key, msg, BytesView(tag.data(), tag.size()));
      EXPECT_EQ(id, static_cast<std::size_t>(i));
    }
    batch.flush();
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(batch.verdict(static_cast<std::size_t>(i)));
    }
    batch.clear();
    EXPECT_EQ(batch.size(), 0u);
  }
}

TEST(BatchVerifierTest, MessagesLargerThanOneBlock) {
  HmacKey key(bytes_of("block-spanning"));
  BatchVerifier batch;
  std::vector<Bytes> msgs;
  std::vector<Digest> tags;
  // Straddle every interesting padding boundary within one flush group.
  for (std::size_t len : {0u, 55u, 56u, 63u, 64u, 65u, 300u, 4096u}) {
    Bytes msg(len, static_cast<std::uint8_t>(len & 0xff));
    tags.push_back(key.mac(msg));
    msgs.push_back(std::move(msg));
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    batch.enqueue(&key, msgs[i], BytesView(tags[i].data(), tags[i].size()));
  }
  batch.flush();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_TRUE(batch.verdict(i)) << "len=" << msgs[i].size();
  }
}

// The >= 50k differential fuzz: batched verdicts equal one-shot verdicts
// for every job, under every available dispatch tier.
TEST(BatchVerifierDifferentialTest, MatchesOneShotOver50kMessages) {
  KeyRegistry registry(0xF0E7E55);
  std::vector<std::string> names;
  std::vector<const HmacKey*> schedules;
  std::vector<SigningKey> signers;
  for (int i = 0; i < 6; ++i) {
    names.push_back("principal-" + std::to_string(i));
    signers.push_back(registry.enroll(names.back()));
  }
  for (const std::string& name : names) {
    schedules.push_back(registry.schedule_for(name));
    ASSERT_NE(schedules.back(), nullptr);
  }

  const std::vector<kernel::ShaTier> tiers = available_tiers();
  const int kTotal = 51200;
  const int per_tier = kTotal / static_cast<int>(tiers.size());

  for (kernel::ShaTier tier : tiers) {
    ScopedTier scope(tier);
    Rng rng(0xBA7C4 + static_cast<std::uint64_t>(tier));
    BatchVerifier batch;
    int done = 0;
    while (done < per_tier) {
      // Random batch fill level so flush groups of every size 1..16 occur.
      const int n = static_cast<int>(rng.below(16)) + 1;
      std::vector<Bytes> msgs;
      std::vector<Bytes> tags;
      std::vector<const HmacKey*> keys;
      for (int i = 0; i < n; ++i) {
        const std::size_t signer = rng.below(names.size());
        Bytes msg = random_bytes(rng, rng.below(200));
        Digest tag = signers[signer].sign(msg).tag;
        Bytes tag_bytes(tag.begin(), tag.end());
        const HmacKey* schedule = schedules[signer];
        switch (rng.below(6)) {
          case 0:  // corrupt one tag byte
            tag_bytes[rng.below(tag_bytes.size())] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
            break;
          case 1:  // corrupt the message
            if (!msg.empty()) {
              msg[rng.below(msg.size())] ^=
                  static_cast<std::uint8_t>(1 + rng.below(255));
            }
            break;
          case 2:  // verify under the wrong key
            schedule = schedules[rng.below(schedules.size())];
            break;
          case 3:  // absent schedule (unknown signer)
            if (rng.below(4) == 0) schedule = nullptr;
            break;
          case 4:  // truncated / oversized tag
            tag_bytes.resize(rng.below(40));
            break;
          default:  // valid
            break;
        }
        msgs.push_back(std::move(msg));
        tags.push_back(std::move(tag_bytes));
        keys.push_back(schedule);
      }

      std::vector<std::size_t> ids;
      std::vector<bool> expected;
      for (int i = 0; i < n; ++i) {
        ids.push_back(batch.enqueue(keys[static_cast<std::size_t>(i)],
                                    msgs[static_cast<std::size_t>(i)],
                                    tags[static_cast<std::size_t>(i)]));
        const HmacKey* k = keys[static_cast<std::size_t>(i)];
        expected.push_back(
            k != nullptr &&
            KeyRegistry::verify_tag_with(*k, msgs[static_cast<std::size_t>(i)],
                                         tags[static_cast<std::size_t>(i)]));
      }
      batch.flush();
      for (int i = 0; i < n; ++i) {
        ASSERT_EQ(batch.verdict(ids[static_cast<std::size_t>(i)]),
                  expected[static_cast<std::size_t>(i)])
            << "tier=" << kernel::tier_name(tier) << " job " << i << " of "
            << n << " msg_len=" << msgs[static_cast<std::size_t>(i)].size()
            << " tag_len=" << tags[static_cast<std::size_t>(i)].size();
      }
      batch.clear();
      done += n;
    }
  }
}

}  // namespace
}  // namespace fortress::crypto
