// message.hpp — wire format of the replication and FORTRESS protocols.
//
// One self-describing record type covers every protocol message (client
// request, primary-backup state update, SMR ordering traffic, signed
// responses, name-server lookups). Fields unused by a message type are left
// empty; encode/decode round-trips all fields. Signatures sign the encoding
// WITHOUT the signature fields (signing_bytes()).
//
// Two decoders over the same wire format:
//  * Message::decode — the owning decoder: heap-materializes every field.
//    Use where a record must outlive the network buffer it arrived in.
//  * MessageView::decode — the zero-copy decoder: validates the full
//    structure but keeps string/bytes fields as views borrowed from the
//    input span. This is what every protocol handler dispatches on; a view
//    DIES WHEN THE HANDLER RETURNS (the network recycles the buffer), so
//    anything retained past that point must go through materialize() or a
//    field-level copy. The two decoders accept exactly the same inputs and
//    agree on every field (differentially fuzzed in codec_fuzz_test).
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "crypto/batch.hpp"
#include "crypto/signature.hpp"

namespace fortress::replication {

/// Message types. Numeric values are part of the wire format.
enum class MsgType : std::uint32_t {
  // Client/proxy plane.
  Request = 1,        ///< client/proxy -> servers: execute `payload`
  Response = 2,       ///< server -> requester: signed result
  ProxyResponse = 3,  ///< proxy -> client: over-signed server response

  // Primary-backup plane.
  StateUpdate = 10,  ///< primary -> backups: executed request + new state
  Heartbeat = 11,    ///< primary -> backups: liveness
  ViewChange = 12,   ///< replica -> all: move to view `view`

  // SMR ordering plane.
  PrePrepare = 20,  ///< leader -> replicas: order (view, seq) = payload
  PrepareAck = 21,  ///< replica -> replicas: endorse (view, seq, digest)
  NewView = 22,     ///< new leader -> replicas: adopt view, re-propose

  // State transfer (SMR proactive recovery; §2.3).
  StateRequest = 30,  ///< rejoining replica -> all: send me your state
  StateReply = 31,    ///< replica -> rejoiner: seq + snapshot

  // Name-server plane.
  NsLookup = 40,  ///< client -> NS: directory request
  NsReply = 41,   ///< NS -> client: directory contents
};

/// Identity of a client request: (client name, client-local sequence).
struct RequestId {
  std::string client;
  std::uint64_t seq = 0;

  auto operator<=>(const RequestId&) const = default;
  std::string to_string() const { return client + "#" + std::to_string(seq); }
};

/// Borrowed values of one message's core — every field except the two
/// signatures. The encoders read these rather than a Message, so a replica
/// can encode straight from its own state without first copying strings and
/// buffers into a Message.
struct MessageFields {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  std::uint32_t sender_index = 0;
  std::string_view client;    ///< request_id.client
  std::uint64_t rid_seq = 0;  ///< request_id.seq
  std::string_view requester;
  BytesView payload;
  BytesView aux;
};

/// Append the core encoding of `f` (the wire bytes up to, not including,
/// the signature fields) to `out`, reserving its exact size first.
void append_core(Bytes& out, const MessageFields& f);

/// The universal protocol record.
struct Message {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;      ///< view/epoch number
  std::uint64_t seq = 0;       ///< order sequence / state version
  std::uint32_t sender_index = 0;  ///< replica index of the sender (if any)
  RequestId request_id;        ///< request being carried/answered
  std::string requester;       ///< network address to answer to
  Bytes payload;               ///< request body / response body
  Bytes aux;                   ///< snapshot / digest / directory blob
  std::optional<crypto::Signature> signature;        ///< server signature
  std::optional<crypto::Signature> over_signature;   ///< proxy over-signature

  /// Borrowed view of every field but the signatures.
  MessageFields fields() const;

  /// Full wire encoding (including signatures).
  Bytes encode() const;

  /// Encode into an existing (typically network-pooled) buffer, replacing
  /// its contents — the allocation-free send path.
  void encode_into(Bytes& out) const;

  /// The byte string a signature covers: everything except the signature
  /// fields. An over-signature covers signing_bytes() PLUS the inner
  /// signature (so the proxy endorses a specific server-signed response).
  Bytes signing_bytes() const;
  Bytes over_signing_bytes() const;

  /// Decode; nullopt on malformed input (never throws on hostile bytes).
  static std::optional<Message> decode(BytesView data);
};

/// Encode an unsigned message into `out` (replacing its contents) with the
/// aux field's bytes appended in place by `write_aux(out)`; `f.aux` is
/// ignored. The primary's state update uses this to write the service
/// snapshot straight into a pooled wire buffer. Bit-identical to encoding a
/// Message whose aux holds the same bytes and that carries no signatures.
template <typename WriteAux>
void encode_unsigned_into(Bytes& out, const MessageFields& f,
                          WriteAux&& write_aux) {
  MessageFields head = f;
  head.aux = {};
  out.clear();
  append_core(out, head);
  const std::size_t aux_start = out.size();
  write_aux(out);
  const std::uint64_t aux_len =
      detail::host_to_be64(static_cast<std::uint64_t>(out.size() - aux_start));
  std::memcpy(out.data() + aux_start - 8, &aux_len, 8);
  out.push_back(0);  // no signature
  out.push_back(0);  // no over-signature
}

/// Borrowed view of one signature field on the wire: signer name and tag
/// point into the decoded input span.
struct SignatureView {
  std::string_view signer;
  BytesView tag;  ///< exactly crypto::Digest-sized

  crypto::Signature materialize() const;
};

/// The fixed-offset prefix of every wire message. MessageView::peek
/// validates only this much — the cheapest possible route/drop decision.
struct MessageHeader {
  MsgType type = MsgType::Request;
  std::uint64_t view = 0;
  std::uint64_t seq = 0;
  std::uint32_t sender_index = 0;
};

/// Zero-copy decode of a wire message: full structural validation (accepts
/// exactly what Message::decode accepts), but every string/bytes field is a
/// view borrowed from the input span — nothing is heap-materialized until a
/// handler calls materialize() (or copies a field) because it must retain
/// data past its return. Fixed-width fields are parsed eagerly (they are
/// free); a MessageView is a small stack value whose lifetime must not
/// exceed the buffer it was decoded from.
class MessageView {
 public:
  /// Validate magic + fixed header only; nullopt if `data` cannot begin a
  /// wire message. For handlers that drop/route on type alone.
  static std::optional<MessageHeader> peek(BytesView data);

  /// Validate the whole record; nullopt exactly when Message::decode
  /// returns nullopt (never throws on hostile bytes, never reads outside
  /// `data` — differentially fuzzed).
  static std::optional<MessageView> decode(BytesView data);

  MsgType type() const { return header_.type; }
  std::uint64_t view() const { return header_.view; }
  std::uint64_t seq() const { return header_.seq; }
  std::uint32_t sender_index() const { return header_.sender_index; }
  std::string_view request_client() const;
  std::uint64_t request_seq() const { return rid_seq_; }
  std::string_view requester() const;
  BytesView payload() const { return data_.subspan(payload_off_, payload_len_); }
  BytesView aux() const { return data_.subspan(aux_off_, aux_len_); }
  const std::optional<SignatureView>& signature() const { return signature_; }
  const std::optional<SignatureView>& over_signature() const {
    return over_signature_;
  }

  /// The wire bytes this view was decoded from.
  BytesView wire() const { return data_; }

  /// Materialize the request identity (allocates the client string).
  RequestId request_id() const;

  /// Materialize the full owning record — bit-equivalent to
  /// Message::decode(wire()). For the few paths that must retain a message
  /// (slot proposals, pending buffers, snapshots).
  Message materialize() const;

  /// Assemble the byte string the server signature covers into `out`
  /// (replacing its contents) by splicing the wire bytes — the requester
  /// field is blanked and ProxyResponse is normalized to Response, exactly
  /// as Message::signing_bytes does, but without re-encoding field by
  /// field. over_signing_bytes_into additionally appends the inner
  /// signature (which must be present).
  void signing_bytes_into(Bytes& out) const;
  void over_signing_bytes_into(Bytes& out) const;
  Bytes signing_bytes() const;

  /// Re-encode this view into `out` with only the requester field replaced
  /// — the proxy forward path (bit-identical to materialize + mutate +
  /// encode, but two splices instead of a full re-encode).
  void encode_readdressed_into(Bytes& out, std::string_view requester) const;

  /// The proxy-response rewrite: this view (a server Response whose inner
  /// signature verified) re-encoded as a ProxyResponse addressed to
  /// `requester` with `over` stapled on as the over-signature. Any
  /// over-signature already on the wire is dropped, as the materializing
  /// path did.
  void encode_proxy_response_into(Bytes& out, std::string_view requester,
                                  const crypto::Signature& over) const;

 private:
  BytesView data_;
  MessageHeader header_;
  std::uint64_t rid_seq_ = 0;
  /// Field geometry, as (offset, length) pairs into data_. *_len_off_ marks
  /// the u64 length prefix of the requester field (the splice point for
  /// signing_bytes_into / re-addressed encodes).
  std::size_t client_off_ = 0, client_len_ = 0;
  std::size_t requester_len_off_ = 0, requester_off_ = 0, requester_len_ = 0;
  std::size_t payload_off_ = 0, payload_len_ = 0;
  std::size_t aux_off_ = 0, aux_len_ = 0;
  std::size_t sig_off_ = 0;   ///< inner-signature presence byte
  std::size_t over_off_ = 0;  ///< over-signature presence byte
  std::optional<SignatureView> signature_;
  std::optional<SignatureView> over_signature_;
};

/// Sign `msg` in place as a server response (sets msg.signature).
void sign_message(Message& msg, const crypto::SigningKey& key);

/// Over-sign `msg` in place as a proxy (sets msg.over_signature).
/// Precondition: msg.signature already present.
void over_sign_message(Message& msg, const crypto::SigningKey& key);

/// Verify the server signature against `registry`.
bool verify_message(const Message& msg, const crypto::KeyRegistry& registry);

/// Verify the server signature against an explicit precomputed schedule
/// (crypto::KeyRegistry::schedule_for) — the amortized per-sender path:
/// the caller has already matched `msg.signature->signer` to the principal
/// the schedule belongs to (e.g. by the message's sender_index).
bool verify_message(const Message& msg, const crypto::HmacKey& schedule);

/// THE amortized indexed-peer verify, shared by every per-message verifier
/// (proxy checking server responses, SMR replica checking ordering
/// traffic): when msg.sender_index addresses a cached schedule AND the
/// claimed signer is exactly names[sender_index], verify against that
/// schedule; anything unusual (missing signature, out-of-range index,
/// unresolved schedule, index/signer mismatch) falls back to the
/// registry's by-name lookup, preserving its acceptance semantics exactly.
/// `schedules` is index-aligned with `names` (entries may be nullptr).
bool verify_from_indexed_peer(const Message& msg,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry);

/// Verify the proxy over-signature (and require the inner one to be present).
bool verify_over_signature(const Message& msg,
                           const crypto::KeyRegistry& registry);

// --- zero-copy verify -------------------------------------------------------
// View counterparts of the verifiers above: the byte string a signature
// covers is spliced from the wire into a per-thread scratch buffer, so the
// steady-state verify path allocates nothing and never materializes the
// message. Acceptance semantics are identical to the Message overloads.

bool verify_message(const MessageView& m, const crypto::HmacKey& schedule);
bool verify_message(const MessageView& m, const crypto::KeyRegistry& registry);
bool verify_from_indexed_peer(const MessageView& m,
                              std::span<const crypto::HmacKey* const> schedules,
                              std::span<const std::string> names,
                              const crypto::KeyRegistry& registry);
bool verify_over_signature(const MessageView& m,
                           const crypto::KeyRegistry& registry);

/// The client's fortified double-signature check: verify_message(m) AND
/// verify_over_signature(m).
bool verify_double_signature(const MessageView& m,
                             const crypto::KeyRegistry& registry);

/// Stage the indexed-peer verification of `m` into `batch` instead of
/// computing it now: the lane-batched half of verify_from_indexed_peer.
/// Stages ONLY when the amortized fast path fully resolves (signature
/// present, sender_index addresses a cached schedule, claimed signer
/// matches) — the returned job id's verdict then equals what
/// verify_from_indexed_peer would have returned. Anything unusual returns
/// nullopt WITHOUT staging; the caller must fall back to the one-shot
/// verifier at consume time, preserving the registry-fallback acceptance
/// semantics exactly.
std::optional<std::size_t> stage_verify_from_indexed_peer(
    const MessageView& m, std::span<const crypto::HmacKey* const> schedules,
    std::span<const std::string> names, crypto::BatchVerifier& batch);

/// A signed response fan-out template: sign ONCE, then splice each
/// recipient's address into precomputed wire bytes. Because signatures
/// cover the requester-blanked form (see Message::signing_bytes), every
/// copy of a response fanned out to N requesters carries the SAME tag —
/// the template hoists that invariant: emit_into(out, r) is bit-identical
/// to { Message m = core; m.requester = r; sign_message(m, key);
/// m.encode_into(out); } at one signature and zero re-encodes for all N.
/// Used by SmrReplica::respond() / PbReplica::send_response fan-out. A
/// replica keeps one template and rebuild()s it per response, so its buffer
/// keeps its capacity and the steady-state fan-out allocates nothing.
class SignedResponseTemplate {
 public:
  SignedResponseTemplate() = default;

  /// Capture `core`'s fields (its requester/signature/over_signature are
  /// ignored) and sign as `key`.
  SignedResponseTemplate(const Message& core, const crypto::SigningKey& key) {
    rebuild(core.fields(), key);
  }

  /// Re-sign for a new core in place (`core.requester` is ignored). The
  /// core is encoded once, requester blanked and type normalized — which
  /// is exactly the signed form — then the type word is patched back for a
  /// ProxyResponse.
  void rebuild(const MessageFields& core, const crypto::SigningKey& key);

  /// Emit the signed wire encoding addressed to `requester` into `out`
  /// (replacing its contents).
  void emit_into(Bytes& out, std::string_view requester) const;

 private:
  /// The signed wire encoding addressed to the empty requester.
  Bytes blank_;
  /// Offset of the requester length field in blank_ (the splice point).
  std::size_t split_ = 0;
};

}  // namespace fortress::replication
