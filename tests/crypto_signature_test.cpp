#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace fortress::crypto {
namespace {

TEST(SignatureTest, SignVerifyRoundTrip) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Bytes msg = bytes_of("response payload");
  Signature sig = key.sign(msg);
  EXPECT_EQ(sig.signer.name, "server-0");
  EXPECT_TRUE(registry.verify(msg, sig));
}

TEST(SignatureTest, TamperedMessageFails) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Signature sig = key.sign(bytes_of("original"));
  EXPECT_FALSE(registry.verify(bytes_of("tampered"), sig));
}

TEST(SignatureTest, TamperedTagFails) {
  KeyRegistry registry(1);
  SigningKey key = registry.enroll("server-0");
  Bytes msg = bytes_of("msg");
  Signature sig = key.sign(msg);
  const BytesView tag(sig.tag.data(), sig.tag.size());
  const HmacKey* schedule = registry.schedule_for("server-0");
  ASSERT_NE(schedule, nullptr);
  // A tag truncated to 16 bytes is a prefix of the valid tag, yet never
  // verifies: only Digest-sized tags are compared.
  EXPECT_TRUE(registry.verify_tag(msg, "server-0", tag));
  EXPECT_FALSE(registry.verify_tag(msg, "server-0", tag.first(16)));
  EXPECT_FALSE(KeyRegistry::verify_tag_with(*schedule, msg, tag.first(16)));
  sig.tag[0] ^= 0x01;
  EXPECT_FALSE(registry.verify(msg, sig));
  EXPECT_FALSE(registry.verify_tag(msg, "server-0", tag));
  EXPECT_FALSE(KeyRegistry::verify_tag_with(*schedule, msg, tag));
}

TEST(SignatureTest, ImpersonationFails) {
  // A principal cannot produce a signature that verifies as another.
  KeyRegistry registry(1);
  SigningKey mallory = registry.enroll("mallory");
  registry.enroll("server-0");
  Bytes msg = bytes_of("msg");
  Signature sig = mallory.sign(msg);
  sig.signer = PrincipalId{"server-0"};  // forged claim
  EXPECT_FALSE(registry.verify(msg, sig));
}

TEST(SignatureTest, UnenrolledSignerRejected) {
  KeyRegistry registry(1);
  KeyRegistry other(2);
  SigningKey foreign = other.enroll("stranger");
  Signature sig = foreign.sign(bytes_of("msg"));
  EXPECT_FALSE(registry.verify(bytes_of("msg"), sig));
  // The borrowed-tag path rejects the unknown signer the same way.
  EXPECT_FALSE(registry.verify_tag(bytes_of("msg"), "stranger",
                                   BytesView(sig.tag.data(), sig.tag.size())));
  EXPECT_EQ(registry.schedule_for("stranger"), nullptr);
}

TEST(SignatureTest, EnrollIsIdempotent) {
  KeyRegistry registry(9);
  SigningKey a = registry.enroll("node");
  SigningKey b = registry.enroll("node");
  Bytes msg = bytes_of("hello");
  EXPECT_EQ(a.sign(msg).tag, b.sign(msg).tag);
  EXPECT_EQ(registry.enrolled_count(), 1u);
}

TEST(SignatureTest, DistinctPrincipalsDistinctTags) {
  KeyRegistry registry(9);
  SigningKey a = registry.enroll("a");
  SigningKey b = registry.enroll("b");
  Bytes msg = bytes_of("same message");
  EXPECT_NE(a.sign(msg).tag, b.sign(msg).tag);
}

TEST(SignatureTest, DistinctMasterSeedsDistinctSecrets) {
  KeyRegistry r1(1), r2(2);
  SigningKey k1 = r1.enroll("node");
  SigningKey k2 = r2.enroll("node");
  Bytes msg = bytes_of("m");
  EXPECT_NE(k1.sign(msg).tag, k2.sign(msg).tag);
}

TEST(SignatureTest, ResetRekeysAndDropsEnrollments) {
  KeyRegistry registry(1);
  SigningKey old_key = registry.enroll("server-0");
  Bytes msg = bytes_of("payload");
  Signature old_sig = old_key.sign(msg);
  ASSERT_TRUE(registry.verify(msg, old_sig));

  registry.reset(2);
  // All enrollments are gone and old-master signatures no longer verify.
  EXPECT_EQ(registry.enrolled_count(), 0u);
  EXPECT_FALSE(registry.is_enrolled("server-0"));
  EXPECT_FALSE(registry.verify(msg, old_sig));
  // Re-enrolling under the new master yields a different, working secret.
  SigningKey new_key = registry.enroll("server-0");
  Signature new_sig = new_key.sign(msg);
  EXPECT_NE(new_sig.tag, old_sig.tag);
  EXPECT_TRUE(registry.verify(msg, new_sig));
  // Stale handles keep signing under the OLD secret: their tags fail.
  EXPECT_FALSE(registry.verify(msg, old_key.sign(msg)));

  // reset(same seed) is equivalent to fresh construction with that seed.
  registry.reset(1);
  EXPECT_EQ(registry.enroll("server-0").sign(msg).tag, old_sig.tag);
}

TEST(SignatureTest, IsEnrolled) {
  KeyRegistry registry(3);
  EXPECT_FALSE(registry.is_enrolled("x"));
  registry.enroll("x");
  EXPECT_TRUE(registry.is_enrolled("x"));
}

TEST(SignatureTest, DoubleSignatureChain) {
  // The FORTRESS response path: a server signs, then a proxy over-signs the
  // (message || server signature); a client verifies both.
  KeyRegistry registry(5);
  SigningKey server = registry.enroll("server-1");
  SigningKey proxy = registry.enroll("proxy-2");

  Bytes response = bytes_of("result=42");
  Signature server_sig = server.sign(response);

  Bytes over_signed = response;
  append(over_signed, bytes_of(server_sig.signer.name));
  append(over_signed, BytesView(server_sig.tag.data(), server_sig.tag.size()));
  Signature proxy_sig = proxy.sign(over_signed);

  EXPECT_TRUE(registry.verify(response, server_sig));
  EXPECT_TRUE(registry.verify(over_signed, proxy_sig));
}

}  // namespace
}  // namespace fortress::crypto
