#include "replication/message.hpp"

#include <cstring>

#include "common/check.hpp"

namespace fortress::replication {

namespace {

constexpr std::uint32_t kWireMagic = 0x46544d47;  // "FTMG"

/// Fixed-width part of the core: magic, type, view, seq, sender index.
constexpr std::size_t kHeaderSize = 28;

void append_string(Bytes& out, std::string_view s) {
  append_u64_be(out, s.size());
  append(out, s);
}

void append_bytes_field(Bytes& out, BytesView b) {
  append_u64_be(out, b.size());
  append(out, b);
}

/// A present signature field: presence byte, signer, tag.
void append_signature(Bytes& out, std::string_view signer,
                      const crypto::Digest& tag) {
  out.push_back(1);
  append_string(out, signer);
  append(out, BytesView(tag.data(), tag.size()));
}

void append_signature(Bytes& out, const std::optional<crypto::Signature>& sig) {
  if (!sig) {
    out.push_back(0);
    return;
  }
  append_signature(out, sig->signer.name, sig->tag);
}

std::size_t core_size(const MessageFields& f) {
  return kHeaderSize + 8 + f.client.size() + 8 + 8 + f.requester.size() + 8 +
         f.payload.size() + 8 + f.aux.size();
}

/// Encoded size of a present signature field by `signer`.
std::size_t signature_size(std::string_view signer) {
  return 1 + 8 + signer.size() + crypto::Digest{}.size();
}

std::size_t signature_size(const std::optional<crypto::Signature>& sig) {
  return sig ? signature_size(sig->signer.name) : 1;
}

class Reader {
 public:
  explicit Reader(BytesView data) : data_(data) {}

  bool ok() const { return ok_; }

  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = read_u32_be(data_, off_);
    off_ += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!require(8)) return 0;
    std::uint64_t v = read_u64_be(data_, off_);
    off_ += 8;
    return v;
  }

  std::uint8_t byte() {
    if (!require(1)) return 0;
    return data_[off_++];
  }

  std::string str() {
    std::uint64_t len = u64();
    if (!require(len)) return {};
    std::string s(data_.begin() + static_cast<std::ptrdiff_t>(off_),
                  data_.begin() + static_cast<std::ptrdiff_t>(off_ + len));
    off_ += len;
    return s;
  }

  Bytes blob() {
    std::uint64_t len = u64();
    if (!require(len)) return {};
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(off_),
            data_.begin() + static_cast<std::ptrdiff_t>(off_ + len));
    off_ += len;
    return b;
  }

  std::optional<crypto::Signature> signature() {
    std::uint8_t present = byte();
    if (!ok_ || present == 0) return std::nullopt;
    crypto::Signature sig;
    sig.signer.name = str();
    if (!require(sig.tag.size())) return std::nullopt;
    std::memcpy(sig.tag.data(), data_.data() + off_, sig.tag.size());
    off_ += sig.tag.size();
    return sig;
  }

  bool exhausted() const { return off_ == data_.size(); }

 private:
  bool require(std::uint64_t n) {
    // Compare against the REMAINING length: `off_ + n` would wrap for the
    // huge length fields a hostile sender can craft.
    if (!ok_ || n > data_.size() - off_) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// The fields a server signature covers:
///  * `requester` is rewritten at each forwarding hop (server -> proxy ->
///    client), so it is excluded (blanked);
///  * a ProxyResponse is the same server-signed object as a Response with
///    an endorsement stapled on, so the type is normalized — the server's
///    signature survives the proxy relabeling. All other type pairs remain
///    distinct, so protocol messages cannot be re-purposed across planes.
MessageFields signed_form(MessageFields f) {
  f.requester = {};
  if (f.type == MsgType::ProxyResponse) f.type = MsgType::Response;
  return f;
}

}  // namespace

void append_core(Bytes& out, const MessageFields& f) {
  out.reserve(out.size() + core_size(f));
  append_u32_be(out, kWireMagic);
  append_u32_be(out, static_cast<std::uint32_t>(f.type));
  append_u64_be(out, f.view);
  append_u64_be(out, f.seq);
  append_u32_be(out, f.sender_index);
  append_string(out, f.client);
  append_u64_be(out, f.rid_seq);
  append_string(out, f.requester);
  append_bytes_field(out, f.payload);
  append_bytes_field(out, f.aux);
}

MessageFields Message::fields() const {
  return MessageFields{type, view, seq, sender_index, request_id.client,
                       request_id.seq, requester, payload, aux};
}

Bytes Message::signing_bytes() const {
  Bytes out;
  append_core(out, signed_form(fields()));
  return out;
}

Bytes Message::over_signing_bytes() const {
  FORTRESS_EXPECTS(signature.has_value());
  Bytes out = signing_bytes();
  append_signature(out, signature);
  return out;
}

Bytes Message::encode() const {
  Bytes out;
  encode_into(out);
  return out;
}

void Message::encode_into(Bytes& out) const {
  const MessageFields f = fields();
  out.clear();
  out.reserve(core_size(f) + signature_size(signature) +
              signature_size(over_signature));
  append_core(out, f);
  append_signature(out, signature);
  append_signature(out, over_signature);
}

crypto::Signature SignatureView::materialize() const {
  crypto::Signature sig;
  sig.signer.name.assign(signer.begin(), signer.end());
  std::memcpy(sig.tag.data(), tag.data(), sig.tag.size());
  return sig;
}

std::optional<MessageHeader> MessageView::peek(BytesView data) {
  if (data.size() < kHeaderSize) return std::nullopt;
  if (read_u32_be(data, 0) != kWireMagic) return std::nullopt;
  MessageHeader h;
  h.type = static_cast<MsgType>(read_u32_be(data, 4));
  h.view = read_u64_be(data, 8);
  h.seq = read_u64_be(data, 16);
  h.sender_index = read_u32_be(data, 24);
  return h;
}

std::optional<MessageView> MessageView::decode(BytesView data) {
  // Mirrors the Reader-based Message::decode walk exactly (the legacy
  // decoder fails "softly" and rejects at the end; failing fast here
  // produces the same accept set — differentially fuzzed). Offsets only;
  // no heap, no redundant bounds checks (every load is guarded by an
  // explicit remaining-length comparison, which also defeats the offset
  // wrap a hostile huge length field would otherwise cause), and the view
  // is built in place inside the returned optional.
  std::optional<MessageView> out;
  const std::size_t n = data.size();
  const std::uint8_t* const p = data.data();
  if (n < kHeaderSize || detail::load_be32(p) != kWireMagic) return out;
  MessageView& v = out.emplace();
  v.data_ = data;
  v.header_.type = static_cast<MsgType>(detail::load_be32(p + 4));
  v.header_.view = detail::load_be64(p + 8);
  v.header_.seq = detail::load_be64(p + 16);
  v.header_.sender_index = detail::load_be32(p + 24);
  std::size_t off = kHeaderSize;
  auto field = [&](std::size_t& f_off, std::size_t& f_len) {
    if (n - off < 8) return false;
    const std::uint64_t len = detail::load_be64(p + off);
    off += 8;
    if (len > n - off) return false;
    f_off = off;
    f_len = static_cast<std::size_t>(len);
    off += f_len;
    return true;
  };
  auto signature = [&](std::optional<SignatureView>& sig, std::size_t& at) {
    at = off;
    if (n - off < 1) return false;
    const std::uint8_t present = p[off++];
    if (present == 0) return true;
    std::size_t signer_off = 0, signer_len = 0;
    if (!field(signer_off, signer_len)) return false;
    if (n - off < crypto::Digest{}.size()) return false;
    SignatureView& sv = sig.emplace();
    sv.signer = std::string_view(reinterpret_cast<const char*>(p) + signer_off,
                                 signer_len);
    sv.tag = data.subspan(off, crypto::Digest{}.size());
    off += crypto::Digest{}.size();
    return true;
  };
  const bool ok = field(v.client_off_, v.client_len_) && n - off >= 8 &&
                  (v.rid_seq_ = detail::load_be64(p + off), off += 8,
                   v.requester_len_off_ = off, true) &&
                  field(v.requester_off_, v.requester_len_) &&
                  field(v.payload_off_, v.payload_len_) &&
                  field(v.aux_off_, v.aux_len_) &&
                  signature(v.signature_, v.sig_off_) &&
                  signature(v.over_signature_, v.over_off_) && off == n;
  if (!ok) out.reset();
  return out;
}

std::string_view MessageView::request_client() const {
  return std::string_view(
      reinterpret_cast<const char*>(data_.data()) + client_off_, client_len_);
}

std::string_view MessageView::requester() const {
  return std::string_view(
      reinterpret_cast<const char*>(data_.data()) + requester_off_,
      requester_len_);
}

RequestId MessageView::request_id() const {
  return RequestId{std::string(request_client()), rid_seq_};
}

Message MessageView::materialize() const {
  Message m;
  m.type = header_.type;
  m.view = header_.view;
  m.seq = header_.seq;
  m.sender_index = header_.sender_index;
  m.request_id.client.assign(request_client());
  m.request_id.seq = rid_seq_;
  m.requester.assign(requester());
  m.payload.assign(payload().begin(), payload().end());
  m.aux.assign(aux().begin(), aux().end());
  if (signature_) m.signature = signature_->materialize();
  if (over_signature_) m.over_signature = over_signature_->materialize();
  return m;
}

void MessageView::signing_bytes_into(Bytes& out) const {
  // The wire already IS the core encoding up to the aux field; the signed
  // form differs only in the (blanked) requester and the ProxyResponse ->
  // Response type normalization, so splice instead of re-encoding.
  out.clear();
  append(out, data_.subspan(0, 4));
  if (header_.type == MsgType::ProxyResponse) {
    append_u32_be(out, static_cast<std::uint32_t>(MsgType::Response));
  } else {
    append(out, data_.subspan(4, 4));
  }
  append(out, data_.subspan(8, requester_len_off_ - 8));
  append_u64_be(out, 0);  // blanked requester
  const std::size_t requester_end = requester_off_ + requester_len_;
  const std::size_t core_end = aux_off_ + aux_len_;
  append(out, data_.subspan(requester_end, core_end - requester_end));
}

void MessageView::over_signing_bytes_into(Bytes& out) const {
  FORTRESS_EXPECTS(signature_.has_value());
  signing_bytes_into(out);
  // The wire's inner-signature field is byte-identical to what
  // append_signature would produce.
  append(out, data_.subspan(sig_off_, over_off_ - sig_off_));
}

Bytes MessageView::signing_bytes() const {
  Bytes out;
  signing_bytes_into(out);
  return out;
}

void MessageView::encode_readdressed_into(Bytes& out,
                                          std::string_view requester) const {
  out.clear();
  append(out, data_.subspan(0, requester_len_off_));
  append_string(out, requester);
  append(out, data_.subspan(requester_off_ + requester_len_));
}

void MessageView::encode_proxy_response_into(
    Bytes& out, std::string_view requester,
    const crypto::Signature& over) const {
  FORTRESS_EXPECTS(signature_.has_value());
  out.clear();
  append(out, data_.subspan(0, 4));
  append_u32_be(out, static_cast<std::uint32_t>(MsgType::ProxyResponse));
  append(out, data_.subspan(8, requester_len_off_ - 8));
  append_string(out, requester);
  // payload, aux and the inner signature, verbatim; then the fresh
  // over-signature in place of whatever followed.
  const std::size_t requester_end = requester_off_ + requester_len_;
  append(out, data_.subspan(requester_end, over_off_ - requester_end));
  append_signature(out, over);
}

std::optional<Message> Message::decode(BytesView data) {
  Reader r(data);
  if (r.u32() != kWireMagic) return std::nullopt;
  Message m;
  std::uint32_t type = r.u32();
  m.type = static_cast<MsgType>(type);
  m.view = r.u64();
  m.seq = r.u64();
  m.sender_index = r.u32();
  m.request_id.client = r.str();
  m.request_id.seq = r.u64();
  m.requester = r.str();
  m.payload = r.blob();
  m.aux = r.blob();
  m.signature = r.signature();
  m.over_signature = r.signature();
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return m;
}

void sign_message(Message& msg, const crypto::SigningKey& key) {
  msg.signature = key.sign(msg.signing_bytes());
}

void over_sign_message(Message& msg, const crypto::SigningKey& key) {
  FORTRESS_EXPECTS(msg.signature.has_value());
  msg.over_signature = key.sign(msg.over_signing_bytes());
}

bool verify_message(const Message& msg, const crypto::HmacKey& schedule) {
  if (!msg.signature) return false;
  return crypto::KeyRegistry::verify_with(schedule, msg.signing_bytes(),
                                          *msg.signature);
}

bool verify_message(const Message& msg, const crypto::KeyRegistry& registry) {
  if (!msg.signature) return false;
  return registry.verify(msg.signing_bytes(), *msg.signature);
}

bool verify_from_indexed_peer(const Message& msg,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry) {
  if (msg.signature && msg.sender_index < schedules.size()) {
    const crypto::HmacKey* schedule = schedules[msg.sender_index];
    if (schedule != nullptr &&
        msg.signature->signer.name == names[msg.sender_index]) {
      return verify_message(msg, *schedule);
    }
  }
  return verify_message(msg, registry);
}

bool verify_over_signature(const Message& msg,
                           const crypto::KeyRegistry& registry) {
  if (!msg.signature || !msg.over_signature) return false;
  return registry.verify(msg.over_signing_bytes(), *msg.over_signature);
}

namespace {

// Per-thread splice target for the view verifiers. Campaign trials are
// single-threaded within a worker, so this introduces no cross-trial state:
// the buffer's CONTENTS never outlive one verify call, only its capacity.
Bytes& verify_scratch() {
  thread_local Bytes scratch;
  return scratch;
}

}  // namespace

bool verify_message(const MessageView& m, const crypto::HmacKey& schedule) {
  if (!m.signature()) return false;
  Bytes& scratch = verify_scratch();
  m.signing_bytes_into(scratch);
  return crypto::KeyRegistry::verify_tag_with(schedule, scratch,
                                              m.signature()->tag);
}

bool verify_message(const MessageView& m, const crypto::KeyRegistry& registry) {
  if (!m.signature()) return false;
  Bytes& scratch = verify_scratch();
  m.signing_bytes_into(scratch);
  return registry.verify_tag(scratch, m.signature()->signer,
                             m.signature()->tag);
}

bool verify_from_indexed_peer(const MessageView& m,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry) {
  if (m.signature() && m.sender_index() < schedules.size()) {
    const crypto::HmacKey* schedule = schedules[m.sender_index()];
    if (schedule != nullptr &&
        m.signature()->signer == names[m.sender_index()]) {
      return verify_message(m, *schedule);
    }
  }
  return verify_message(m, registry);
}

bool verify_over_signature(const MessageView& m,
                           const crypto::KeyRegistry& registry) {
  if (!m.signature() || !m.over_signature()) return false;
  Bytes& scratch = verify_scratch();
  m.over_signing_bytes_into(scratch);
  return registry.verify_tag(scratch, m.over_signature()->signer,
                             m.over_signature()->tag);
}

bool verify_double_signature(const MessageView& m,
                             const crypto::KeyRegistry& registry) {
  return verify_message(m, registry) && verify_over_signature(m, registry);
}

void SignedResponseTemplate::rebuild(const MessageFields& core,
                                     const crypto::SigningKey& key) {
  // The signature covers the requester-blanked, type-normalized core —
  // identical for every recipient (this is what makes the template sound).
  // Encode that form once, sign it, then restore the real type word.
  const MessageFields signed_core = signed_form(core);
  const std::string_view signer = key.id().name;
  blank_.clear();
  blank_.reserve(core_size(signed_core) + signature_size(signer) + 1);
  append_core(blank_, signed_core);
  const crypto::Digest tag = key.tag(blank_);
  if (core.type != signed_core.type) {
    const std::uint32_t type =
        detail::host_to_be32(static_cast<std::uint32_t>(core.type));
    std::memcpy(blank_.data() + 4, &type, 4);
  }
  append_signature(blank_, signer, tag);
  blank_.push_back(0);  // no over-signature
  split_ = kHeaderSize + 8 + core.client.size() + 8;
}

void SignedResponseTemplate::emit_into(Bytes& out,
                                       std::string_view requester) const {
  // Splice the address over the blank requester (its zero length field).
  const BytesView blank(blank_);
  out.clear();
  out.reserve(blank.size() + requester.size());
  append(out, blank.first(split_));
  append_string(out, requester);
  append(out, blank.subspan(split_ + 8));
}

}  // namespace fortress::replication
