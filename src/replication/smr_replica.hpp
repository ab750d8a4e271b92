// smr_replica.hpp — state-machine replication (the paper's S0 class).
//
// A compact leader-based ordering protocol for n = 3f+1 replicas:
//   * the leader of view v (index v mod n) assigns a sequence number to each
//     fresh request and broadcasts a signed PrePrepare carrying the request;
//   * every replica that accepts the PrePrepare broadcasts a signed
//     PrepareAck over (view, seq, digest);
//   * a replica that collects 2f+1 matching PrepareAcks (its own included)
//     marks the slot committed and executes committed slots strictly in
//     sequence order, then signs and returns the response to every
//     requester. Correct replicas therefore produce identical responses —
//     which is precisely why the service must be a deterministic state
//     machine (DSM), the §1 requirement PB avoids.
//   * view change: a replica that sees no leader progress while work is
//     pending broadcasts ViewChange(v+1); on 2f+1 such messages the view
//     advances and the new leader re-proposes unexecuted requests.
//
// Proactive recovery/obfuscation support (§2.3, Roeder-Schneider): after a
// reboot the replica marks its state stale, broadcasts StateRequest, and
// resumes once f+1 replicas report an identical (seq, snapshot digest) at
// least as new as its own — the "f+1 correct replicas supply the state"
// rule.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/message.hpp"
#include "replication/request_table.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {

struct SmrConfig {
  std::uint32_t index = 0;
  std::uint32_t f = 1;                 ///< tolerated faults; n = 3f+1
  std::vector<net::Address> replicas;  ///< addresses by index (size 3f+1)
  sim::Time progress_timeout = 30.0;
  sim::Time heartbeat_interval = 5.0;
};

class SmrReplica final : public osl::Application {
 public:
  /// SMR accepts only deterministic services — the DSM requirement.
  SmrReplica(sim::Simulator& sim, net::Network& network,
             crypto::KeyRegistry& registry,
             std::unique_ptr<DeterministicService> service, SmrConfig config);
  ~SmrReplica() override;

  void start();
  void stop();

  /// Return to the just-constructed state for a fresh campaign trial (see
  /// PbReplica::reset for the contract).
  void reset();

  std::uint64_t view() const { return view_; }
  bool is_leader() const { return view_ % config_.replicas.size() == config_.index; }
  std::uint64_t executed_seq() const { return executed_seq_; }
  bool state_stale() const { return stale_; }
  const Service& service() const { return *service_; }
  const net::Address& address() const { return config_.replicas[config_.index]; }
  std::uint32_t quorum() const { return 2 * config_.f + 1; }

  // osl::Application:
  void handle_message(const net::Envelope& env) override;
  void handle_reboot() override;
  /// Stage the peer-signature check of a queued ordering message
  /// (PrePrepare/PrepareAck/ViewChange/StateReply) in the machine's
  /// staged verify batch; same acceptance as the one-shot
  /// verify_from_peer (see crypto::BatchVerifier).
  std::optional<std::size_t> stage_verify(
      const net::Envelope& env, crypto::BatchVerifier& batch) override;

 private:
  struct Slot {
    RequestId rid;
    Bytes request;
    crypto::Digest digest{};
    std::set<std::uint32_t> acks;
    bool pre_prepared = false;
    bool committed = false;
    bool executed = false;
  };

  /// Consolidated per-request record — the flat-table replacement for the
  /// old proposed_/responses_/requesters_/pending_ map quartet. Flags flip
  /// where the maps erased; records themselves are never removed within a
  /// trial.
  struct RequestState {
    RequestId rid;
    std::uint64_t hash = 0;
    bool proposed = false;      ///< leader assigned it a slot this view
    bool has_response = false;  ///< executed; `response` is the reply cache
    bool pending = false;       ///< buffered for (re-)proposal
    Bytes response;
    Bytes pending_request;
    /// Who asked, ascending (the old std::set iteration order).
    std::vector<net::HostId> requesters;
  };

  void handle_request(const net::Envelope& env, const MessageView& msg);
  void handle_pre_prepare(const MessageView& msg);
  void handle_prepare_ack(const MessageView& msg);
  void handle_view_change(const MessageView& msg);
  void handle_state_request(const MessageView& msg);
  void handle_state_reply(const net::Envelope& env, const MessageView& msg);
  /// The shared accept path behind handle_pre_prepare (borrowed fields from
  /// the wire) and propose (the leader's own proposal).
  void apply_pre_prepare(std::uint64_t view, std::uint64_t seq,
                         std::uint32_t sender, std::string_view client,
                         std::uint64_t rid_seq, BytesView request);
  void propose(const RequestId& rid, BytesView request);
  void try_execute();
  void respond(const RequestState& req, net::HostId to);
  /// Sign the executed response ONCE and splice a per-recipient wire copy
  /// for each requester (SignedResponseTemplate) — the fan-out path behind
  /// respond(); byte-identical to signing each copy individually.
  void respond_many(const RequestState& req,
                    std::span<const net::HostId> recipients);
  void check_progress();
  void adopt_view(std::uint64_t view);
  void broadcast(const Message& msg);
  void send_to(net::HostId to, const Message& msg);
  void request_state();
  /// Verify a peer-signed ordering message; uses the direct-indexed
  /// schedule for the claimed sender_index when the signer matches,
  /// falling back to the registry's by-name lookup otherwise.
  bool verify_from_peer(const MessageView& msg) const;
  /// The verdict for a dispatched message: the batch-staged result when the
  /// machine precomputed one (env.staged_verdict), the one-shot
  /// verify_from_peer otherwise. Equal by the stage_verify contract.
  bool verified(const net::Envelope& env, const MessageView& msg) const;
  /// Fill peer_schedules_ on first use (every peer of the tier is enrolled
  /// by the time traffic flows; the arena keeps its PKI across trials).
  void resolve_peer_schedules() const;
  static crypto::Digest digest_of(const RequestId& rid, BytesView request);

  sim::Simulator& sim_;
  net::Network& network_;
  crypto::KeyRegistry& registry_;
  crypto::SigningKey key_;
  std::unique_ptr<DeterministicService> service_;
  Bytes pristine_state_;  ///< construction-time snapshot, restored by reset()
  SmrConfig config_;
  /// Dense ids, index-aligned with config_.replicas (interned at ctor).
  net::HostId id_ = net::kInvalidHost;
  std::vector<net::HostId> replica_ids_;
  /// Per-peer verification schedules, resolved lazily at first start()
  /// (every replica of the tier is enrolled by then; stable across pooled
  /// trials because the arena keeps its PKI).
  mutable std::vector<const crypto::HmacKey*> peer_schedules_;

  std::uint64_t view_ = 0;
  std::uint64_t next_seq_ = 0;      ///< leader-side allocator (last assigned)
  std::uint64_t executed_seq_ = 0;  ///< highest executed slot
  bool stale_ = false;              ///< awaiting state transfer after reboot

  std::map<std::uint64_t, Slot> slots_;  ///< by sequence number
  /// Per-request state, hashed on (client, seq) and probed with borrowed
  /// MessageView keys — no allocation, no rb-tree string walks.
  RequestTable<RequestState> requests_;
  std::size_t pending_count_ = 0;  ///< records with pending == true
  /// Re-signed per response; its buffer keeps its capacity across requests.
  SignedResponseTemplate response_template_;

  /// View-change votes: view -> voter indices.
  std::map<std::uint64_t, std::set<std::uint32_t>> view_votes_;
  /// State-transfer replies: (seq, snapshot digest) -> senders; snapshot kept.
  struct StateOffer {
    std::set<std::uint32_t> senders;
    Bytes snapshot;
  };
  std::map<std::pair<std::uint64_t, crypto::Digest>, StateOffer> state_offers_;

  sim::Time last_progress_ = 0.0;
  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer progress_timer_;
  bool running_ = false;
};

}  // namespace fortress::replication
