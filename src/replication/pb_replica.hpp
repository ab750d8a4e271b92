// pb_replica.hpp — classical primary-backup replication (§1, §3).
//
// One primary executes requests and ships (response, state snapshot) updates
// to the backups; every replica — primary and backups alike — signs the
// response together with its index and returns it to the requester, exactly
// as §3 prescribes for the FORTRESS server tier. Because backups apply the
// primary's state instead of re-executing, the replicated service may be
// arbitrarily non-deterministic.
//
// Crash-fault tolerance only (that is PB's contract): primary liveness is
// monitored with heartbeats; on silence the next replica index takes over
// (view v -> primary index v mod n). Service state survives reboots (stable
// storage assumption of crash-tolerant replication).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/message.hpp"
#include "replication/request_table.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {

struct PbConfig {
  std::uint32_t index = 0;  ///< this replica's index (0-based)
  std::vector<net::Address> replicas;  ///< addresses by index
  sim::Time heartbeat_interval = 5.0;
  sim::Time failover_timeout = 20.0;
};

/// A primary-backup replica. Plug into an osl::Machine via set_application().
class PbReplica final : public osl::Application {
 public:
  PbReplica(sim::Simulator& sim, net::Network& network,
            crypto::KeyRegistry& registry, std::unique_ptr<Service> service,
            PbConfig config);
  ~PbReplica() override;

  /// Start heartbeat/failover timers. Call after the machine is booted.
  void start();
  void stop();

  /// Return to the just-constructed state for a fresh campaign trial:
  /// timers stopped, view/log/response caches cleared, the service restored
  /// to its pristine construction-time snapshot. The signing key is KEPT —
  /// the pooled stack keeps its PKI across trials (see LiveSystem::reset).
  /// Caller resets the simulator/network first.
  void reset();

  std::uint64_t view() const { return view_; }
  bool is_primary() const { return view_ % config_.replicas.size() == config_.index; }
  std::uint64_t applied_seq() const { return applied_seq_; }
  std::uint64_t executed_requests() const { return executed_count_; }
  const Service& service() const { return *service_; }
  const net::Address& address() const { return config_.replicas[config_.index]; }

  // osl::Application:
  void handle_message(const net::Envelope& env) override;
  void handle_reboot() override;

 private:
  /// Per-request record: the old responses_/requesters_ map pair folded
  /// into one flat hashed table (see request_table.hpp).
  struct RequestState {
    RequestId rid;
    std::uint64_t hash = 0;
    bool has_response = false;
    Bytes response;
    /// Who asked, ascending (the old std::set iteration order).
    std::vector<net::HostId> requesters;
  };

  void handle_request(const net::Envelope& env, const MessageView& msg);
  void handle_state_update(const MessageView& msg);
  void handle_heartbeat(const MessageView& msg);
  void handle_view_change(const MessageView& msg);
  void send_response(const RequestState& req, net::HostId to);
  void respond_to_all(const RequestState& req);
  /// Sign the cached response ONCE and splice a per-recipient wire copy
  /// for each recipient (SignedResponseTemplate) — byte-identical to
  /// signing each copy individually.
  void respond_many(const RequestState& req,
                    std::span<const net::HostId> recipients);
  void broadcast(const Message& msg);
  /// Send pooled copies of an encoded message to every peer, then recycle.
  void broadcast_wire(Bytes wire);
  void check_failover();
  void send_heartbeat();
  void adopt_view(std::uint64_t view);

  sim::Simulator& sim_;
  net::Network& network_;
  crypto::KeyRegistry& registry_;
  crypto::SigningKey key_;
  /// This replica's dense id and its peers' ids (index-aligned with
  /// config_.replicas), interned once at construction.
  net::HostId id_ = net::kInvalidHost;
  std::vector<net::HostId> replica_ids_;
  std::unique_ptr<Service> service_;
  /// The service's construction-time state; reset() restores it so a pooled
  /// replica starts every trial with the same service state a factory-fresh
  /// one would.
  Bytes pristine_state_;
  PbConfig config_;

  std::uint64_t view_ = 0;
  std::uint64_t applied_seq_ = 0;
  std::uint64_t executed_count_ = 0;
  sim::Time last_primary_sign_of_life_ = 0.0;

  /// Completed requests (dedup + re-reply cache) and their requesters,
  /// hashed on (client, seq) and probed with borrowed MessageView keys.
  RequestTable<RequestState> requests_;
  /// Re-signed per response; its buffer keeps its capacity across requests.
  SignedResponseTemplate response_template_;

  sim::PeriodicTimer heartbeat_timer_;
  sim::PeriodicTimer failover_timer_;
  bool running_ = false;
};

}  // namespace fortress::replication
