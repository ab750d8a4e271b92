#include "replication/message.hpp"

#include <gtest/gtest.h>

#include <iterator>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace fortress::replication {
namespace {

Message sample() {
  Message m;
  m.type = MsgType::StateUpdate;
  m.view = 3;
  m.seq = 42;
  m.sender_index = 2;
  m.request_id = RequestId{"client-7", 19};
  m.requester = "proxy-1";
  m.payload = bytes_of("response body");
  m.aux = bytes_of("snapshot blob");
  return m;
}

TEST(MessageTest, EncodeDecodeRoundTrip) {
  Message m = sample();
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, m.type);
  EXPECT_EQ(decoded->view, m.view);
  EXPECT_EQ(decoded->seq, m.seq);
  EXPECT_EQ(decoded->sender_index, m.sender_index);
  EXPECT_EQ(decoded->request_id, m.request_id);
  EXPECT_EQ(decoded->requester, m.requester);
  EXPECT_EQ(decoded->payload, m.payload);
  EXPECT_EQ(decoded->aux, m.aux);
  EXPECT_FALSE(decoded->signature.has_value());
  EXPECT_FALSE(decoded->over_signature.has_value());
}

TEST(MessageTest, RoundTripWithSignatures) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");

  Message m = sample();
  sign_message(m, server);
  over_sign_message(m, proxy);
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(decoded->signature.has_value());
  ASSERT_TRUE(decoded->over_signature.has_value());
  EXPECT_EQ(decoded->signature->signer.name, "server-0");
  EXPECT_EQ(decoded->over_signature->signer.name, "proxy-0");
  EXPECT_TRUE(verify_message(*decoded, registry));
  EXPECT_TRUE(verify_over_signature(*decoded, registry));
}

TEST(MessageTest, EmptyFieldsRoundTrip) {
  Message m;
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->request_id.client, "");
  EXPECT_TRUE(decoded->payload.empty());
}

TEST(MessageTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Message::decode(bytes_of("not a message")).has_value());
  EXPECT_FALSE(Message::decode(Bytes{}).has_value());
  EXPECT_FALSE(Message::decode(Bytes{0x46, 0x54}).has_value());
}

TEST(MessageTest, DecodeRejectsTruncation) {
  Bytes wire = sample().encode();
  for (std::size_t cut : {wire.size() - 1, wire.size() / 2, std::size_t{5}}) {
    EXPECT_FALSE(
        Message::decode(BytesView(wire.data(), cut)).has_value())
        << "cut=" << cut;
  }
}

TEST(MessageTest, DecodeRejectsTrailingBytes) {
  Bytes wire = sample().encode();
  wire.push_back(0);
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(MessageTest, SignatureCoversAllCoreFields) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  Message m = sample();
  sign_message(m, key);
  ASSERT_TRUE(verify_message(m, registry));

  // Any mutated core field must invalidate the signature.
  Message t1 = m;
  t1.payload = bytes_of("tampered");
  EXPECT_FALSE(verify_message(t1, registry));
  Message t2 = m;
  t2.seq += 1;
  EXPECT_FALSE(verify_message(t2, registry));
  Message t3 = m;
  t3.request_id.seq += 1;
  EXPECT_FALSE(verify_message(t3, registry));
  Message t4 = m;
  t4.sender_index += 1;
  EXPECT_FALSE(verify_message(t4, registry));
}

TEST(MessageTest, OverSignatureBindsInnerSignature) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server0 = registry.enroll("server-0");
  crypto::SigningKey server1 = registry.enroll("server-1");
  crypto::SigningKey proxy = registry.enroll("proxy-0");

  Message m = sample();
  sign_message(m, server0);
  over_sign_message(m, proxy);
  ASSERT_TRUE(verify_over_signature(m, registry));

  // Swapping the inner signature for another server's (even a valid one)
  // must break the proxy's endorsement.
  Message swapped = m;
  sign_message(swapped, server1);  // still a valid inner signature...
  EXPECT_TRUE(verify_message(swapped, registry));
  EXPECT_FALSE(verify_over_signature(swapped, registry));
}

TEST(MessageTest, OverSignWithoutInnerViolatesContract) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  EXPECT_THROW(over_sign_message(m, proxy), ContractViolation);
}

TEST(MessageTest, VerifyMissingSignatureIsFalse) {
  crypto::KeyRegistry registry(1);
  Message m = sample();
  EXPECT_FALSE(verify_message(m, registry));
  EXPECT_FALSE(verify_over_signature(m, registry));
}

TEST(RequestIdTest, OrderingAndFormat) {
  RequestId a{"alice", 1}, b{"alice", 2}, c{"bob", 0};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);
  EXPECT_EQ(a.to_string(), "alice#1");
}

// --- MessageView ------------------------------------------------------------

TEST(MessageViewTest, PeekReadsFixedHeader) {
  Message m = sample();
  Bytes wire = m.encode();
  auto header = MessageView::peek(wire);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->type, m.type);
  EXPECT_EQ(header->view, m.view);
  EXPECT_EQ(header->seq, m.seq);
  EXPECT_EQ(header->sender_index, m.sender_index);

  EXPECT_FALSE(MessageView::peek(BytesView(wire.data(), 27)).has_value());
  wire[0] ^= 1;  // break the magic
  EXPECT_FALSE(MessageView::peek(wire).has_value());
}

TEST(MessageViewTest, ViewFieldsMatchLegacyDecode) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  sign_message(m, server);
  over_sign_message(m, proxy);
  Bytes wire = m.encode();

  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type(), m.type);
  EXPECT_EQ(view->view(), m.view);
  EXPECT_EQ(view->seq(), m.seq);
  EXPECT_EQ(view->sender_index(), m.sender_index);
  EXPECT_EQ(view->request_client(), m.request_id.client);
  EXPECT_EQ(view->request_seq(), m.request_id.seq);
  EXPECT_EQ(view->request_id(), m.request_id);
  EXPECT_EQ(view->requester(), m.requester);
  ASSERT_TRUE(view->signature().has_value());
  EXPECT_EQ(view->signature()->materialize(), *m.signature);
  ASSERT_TRUE(view->over_signature().has_value());
  EXPECT_EQ(view->over_signature()->materialize(), *m.over_signature);
  EXPECT_EQ(view->materialize().encode(), wire);
}

TEST(MessageViewTest, SigningBytesMatchLegacySplice) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  for (MsgType type : {MsgType::Response, MsgType::ProxyResponse,
                       MsgType::PrePrepare}) {
    Message m = sample();
    m.type = type;
    sign_message(m, server);
    if (type == MsgType::ProxyResponse) over_sign_message(m, proxy);
    Bytes wire = m.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value());
    EXPECT_EQ(view->signing_bytes(), m.signing_bytes());
    if (m.signature.has_value()) {
      Bytes over;
      view->over_signing_bytes_into(over);
      EXPECT_EQ(over, m.over_signing_bytes());
    }
    EXPECT_TRUE(verify_message(*view, registry));
    if (type == MsgType::ProxyResponse) {
      EXPECT_TRUE(verify_over_signature(*view, registry));
    }
  }
}

TEST(MessageViewTest, ViewVerifyRejectsWhatLegacyRejects) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  Message m = sample();
  sign_message(m, server);
  Bytes wire = m.encode();
  // Tamper with a byte inside the (signed) payload region: both verifies
  // must fail. The offset is recovered from the view so the test does not
  // hard-code wire geometry.
  auto pristine = MessageView::decode(wire);
  ASSERT_TRUE(pristine.has_value());
  const std::size_t payload_off = static_cast<std::size_t>(
      pristine->payload().data() - wire.data());
  Bytes tampered = wire;
  tampered[payload_off] ^= 0xff;
  auto legacy = Message::decode(tampered);
  auto view = MessageView::decode(tampered);
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(verify_message(*legacy, registry), verify_message(*view, registry));
  EXPECT_FALSE(verify_message(*view, registry));

  auto unsigned_view = MessageView::decode(wire);
  Message no_sig = sample();
  Bytes no_sig_wire = no_sig.encode();
  auto no_sig_view = MessageView::decode(no_sig_wire);
  ASSERT_TRUE(no_sig_view.has_value());
  EXPECT_FALSE(verify_message(*no_sig_view, registry));
}

TEST(MessageViewTest, ReaddressedEncodeMatchesMaterializedRewrite) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  Message m = sample();
  m.type = MsgType::Request;
  sign_message(m, server);
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());

  for (const std::string& next_hop : {std::string("proxy-9"), std::string()}) {
    Bytes spliced;
    view->encode_readdressed_into(spliced, next_hop);
    Message mutated = m;
    mutated.requester = next_hop;
    EXPECT_EQ(spliced, mutated.encode());
    // The rewrite leaves the signed content intact.
    auto again = MessageView::decode(spliced);
    ASSERT_TRUE(again.has_value());
    EXPECT_TRUE(verify_message(*again, registry));
  }
}

TEST(MessageViewTest, ProxyResponseEncodeMatchesMaterializedRewrite) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Message m = sample();
  m.type = MsgType::Response;
  sign_message(m, server);
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());

  // The old materializing path: copy, relabel, re-address, over-sign.
  Message out = m;
  out.type = MsgType::ProxyResponse;
  out.requester = "client-3";
  over_sign_message(out, proxy);

  // The splice path: one over-signature computed from the view.
  Bytes over_bytes;
  view->over_signing_bytes_into(over_bytes);
  crypto::Signature over = proxy.sign(over_bytes);
  Bytes spliced;
  view->encode_proxy_response_into(spliced, "client-3", over);
  EXPECT_EQ(spliced, out.encode());

  auto delivered = MessageView::decode(spliced);
  ASSERT_TRUE(delivered.has_value());
  EXPECT_TRUE(verify_message(*delivered, registry));
  EXPECT_TRUE(verify_over_signature(*delivered, registry));
}

// --- the round-trip property ------------------------------------------------

constexpr MsgType kAllTypes[] = {
    MsgType::Request,      MsgType::Response,     MsgType::ProxyResponse,
    MsgType::StateUpdate,  MsgType::Heartbeat,    MsgType::ViewChange,
    MsgType::PrePrepare,   MsgType::PrepareAck,   MsgType::NewView,
    MsgType::StateRequest, MsgType::StateReply,   MsgType::NsLookup,
    MsgType::NsReply,
};

Bytes random_field(Rng& rng) {
  // Mostly small, occasionally huge (a snapshot-sized aux), sometimes empty.
  const std::uint64_t shape = rng.below(8);
  std::size_t len = 0;
  if (shape == 0) {
    len = 0;
  } else if (shape == 7) {
    len = 4096 + static_cast<std::size_t>(rng.below(61440));
  } else {
    len = static_cast<std::size_t>(rng.below(96));
  }
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

std::string random_name(Rng& rng) {
  Bytes raw = random_field(rng);
  return std::string(raw.begin(), raw.end());
}

TEST(MessageViewTest, RandomizedRoundTripIsBitIdentical) {
  // encode -> view-decode -> materialize -> re-encode must reproduce the
  // wire bit for bit, across every MsgType, empty/huge fields and every
  // signature combination.
  crypto::KeyRegistry registry(99);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Rng rng(321);
  for (int trial = 0; trial < 2000; ++trial) {
    Message m;
    m.type = kAllTypes[rng.below(std::size(kAllTypes))];
    m.view = rng.bits();
    m.seq = rng.bits();
    m.sender_index = static_cast<std::uint32_t>(rng.bits());
    m.request_id = RequestId{random_name(rng), rng.bits()};
    m.requester = random_name(rng);
    m.payload = random_field(rng);
    m.aux = random_field(rng);
    const std::uint64_t sigs = rng.below(3);
    if (sigs >= 1) sign_message(m, server);
    if (sigs == 2) over_sign_message(m, proxy);

    const Bytes wire = m.encode();
    auto view = MessageView::decode(wire);
    ASSERT_TRUE(view.has_value()) << "trial " << trial;
    EXPECT_EQ(view->materialize().encode(), wire) << "trial " << trial;
    EXPECT_EQ(view->signing_bytes(), m.signing_bytes()) << "trial " << trial;
    if (sigs >= 1) {
      EXPECT_TRUE(verify_message(*view, registry)) << "trial " << trial;
    }
    if (sigs == 2) {
      EXPECT_TRUE(verify_over_signature(*view, registry)) << "trial " << trial;
    }
  }
}

TEST(SignedResponseTemplateTest, EmitMatchesSignEachCopy) {
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-0");

  for (MsgType type : {MsgType::Response, MsgType::ProxyResponse}) {
    Message core = sample();
    core.type = type;
    core.requester = "ignored-by-the-template";
    const SignedResponseTemplate tmpl(core, server);

    for (const std::string& requester :
         {std::string("client-a"), std::string("a-much-longer-requester-name"),
          std::string()}) {
      Bytes spliced;
      tmpl.emit_into(spliced, requester);

      Message reference = core;
      reference.requester = requester;
      reference.signature.reset();
      reference.over_signature.reset();
      sign_message(reference, server);
      EXPECT_EQ(spliced, reference.encode())
          << "type " << static_cast<int>(type) << " requester '" << requester
          << "'";

      auto view = MessageView::decode(spliced);
      ASSERT_TRUE(view.has_value());
      EXPECT_TRUE(verify_message(*view, registry));
    }
  }
}

TEST(SignedResponseTemplateTest, RebuiltTemplateMatchesFreshAndSignEachCopy) {
  // EmitMatchesSignEachCopy for a template rebuilt in place, core after
  // core, the way a replica keeps one: longer and shorter payloads, a
  // longer client name, a ProxyResponse and back, and an aux field.
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-0");

  std::vector<Message> cores;
  Message core = sample();
  core.type = MsgType::Response;
  cores.push_back(core);
  core.payload = bytes_of(std::string(300, 'p'));  // longer payload
  core.seq = 43;
  cores.push_back(core);
  core.payload.clear();  // shorter payload
  core.request_id = RequestId{"a-client-with-a-much-longer-name", 20};
  cores.push_back(core);
  core.type = MsgType::ProxyResponse;
  core.payload = bytes_of("relabeled");
  cores.push_back(core);
  core.type = MsgType::Response;
  core.aux.clear();
  core.request_id = RequestId{"c", 1};
  cores.push_back(core);

  SignedResponseTemplate reused;
  for (std::size_t i = 0; i < cores.size(); ++i) {
    reused.rebuild(cores[i].fields(), server);
    const SignedResponseTemplate fresh(cores[i], server);
    for (const std::string& requester :
         {std::string("client-a"), std::string("a-much-longer-requester-name"),
          std::string()}) {
      Bytes from_reused = bytes_of("stale pooled-buffer contents");
      reused.emit_into(from_reused, requester);
      Bytes from_fresh;
      fresh.emit_into(from_fresh, requester);
      EXPECT_EQ(from_reused, from_fresh) << "core " << i;

      Message reference = cores[i];
      reference.requester = requester;
      sign_message(reference, server);
      EXPECT_EQ(from_reused, reference.encode()) << "core " << i;

      auto view = MessageView::decode(from_reused);
      ASSERT_TRUE(view.has_value());
      EXPECT_TRUE(verify_message(*view, registry));
    }
  }
}

TEST(MessageTest, UnsignedEncodingWithInPlaceAuxMatchesEncode) {
  Message m = sample();
  Bytes out = bytes_of("stale pooled-buffer contents");
  encode_unsigned_into(out, m.fields(),
                       [&](Bytes& wire) { append(wire, m.aux); });
  EXPECT_EQ(out, m.encode());
  m.aux.clear();
  encode_unsigned_into(out, m.fields(), [](Bytes&) {});
  EXPECT_EQ(out, m.encode());
}

TEST(SignedResponseTemplateTest, EmitReplacesBufferContents) {
  crypto::KeyRegistry registry(7);
  crypto::SigningKey server = registry.enroll("server-0");
  Message core = sample();
  core.type = MsgType::Response;
  const SignedResponseTemplate tmpl(core, server);

  Bytes out = bytes_of("stale pooled-buffer contents");
  tmpl.emit_into(out, "client-b");
  Message reference = core;
  reference.requester = "client-b";
  sign_message(reference, server);
  EXPECT_EQ(out, reference.encode());
}

TEST(MessageViewTest, DoubleSignatureMatchesSequentialChecks) {
  crypto::KeyRegistry registry(11);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::SigningKey proxy = registry.enroll("proxy-0");
  Rng rng(0xD0B1E);

  for (int trial = 0; trial < 200; ++trial) {
    Message m = sample();
    m.type = MsgType::ProxyResponse;
    sign_message(m, server);
    over_sign_message(m, proxy);
    Bytes wire = m.encode();
    // Corrupt one wire byte in half the trials: the batched check must
    // reject exactly what the sequential pair rejects.
    if (trial % 2 == 1) {
      wire[rng.below(wire.size())] ^= static_cast<std::uint8_t>(
          1u << rng.below(8));
    }
    auto view = MessageView::decode(wire);
    if (!view.has_value()) continue;  // corruption broke framing entirely
    const bool sequential = verify_message(*view, registry) &&
                            verify_over_signature(*view, registry);
    EXPECT_EQ(verify_double_signature(*view, registry), sequential)
        << "trial " << trial;
  }
}

TEST(MessageViewTest, DoubleSignatureRejectsUnknownSigners) {
  crypto::KeyRegistry registry(11);
  crypto::SigningKey server = registry.enroll("server-0");
  crypto::KeyRegistry other(13);
  crypto::SigningKey stranger = other.enroll("stranger");

  Message m = sample();
  m.type = MsgType::ProxyResponse;
  sign_message(m, server);
  over_sign_message(m, stranger);  // signer the registry has never enrolled
  Bytes wire = m.encode();
  auto view = MessageView::decode(wire);
  ASSERT_TRUE(view.has_value());
  EXPECT_FALSE(verify_double_signature(*view, registry));
  EXPECT_EQ(verify_double_signature(*view, registry),
            verify_message(*view, registry) &&
                verify_over_signature(*view, registry));
}

}  // namespace
}  // namespace fortress::replication
