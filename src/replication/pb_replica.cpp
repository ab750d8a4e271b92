#include "replication/pb_replica.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fortress::replication {

PbReplica::PbReplica(sim::Simulator& sim, net::Network& network,
                     crypto::KeyRegistry& registry,
                     std::unique_ptr<Service> service, PbConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      key_(registry.enroll(config.replicas.at(config.index))),
      service_(std::move(service)),
      config_(std::move(config)),
      heartbeat_timer_(sim, config_.heartbeat_interval,
                       [this] { send_heartbeat(); }),
      failover_timer_(sim, config_.failover_timeout / 4.0,
                      [this] { check_failover(); }) {
  FORTRESS_EXPECTS(service_ != nullptr);
  FORTRESS_EXPECTS(!config_.replicas.empty());
  FORTRESS_EXPECTS(config_.index < config_.replicas.size());
  FORTRESS_EXPECTS(config_.heartbeat_interval > 0);
  FORTRESS_EXPECTS(config_.failover_timeout > config_.heartbeat_interval);
  pristine_state_ = service_->snapshot();
  replica_ids_.reserve(config_.replicas.size());
  for (const net::Address& addr : config_.replicas) {
    replica_ids_.push_back(network_.intern(addr));
  }
  id_ = replica_ids_[config_.index];
}

void PbReplica::reset() {
  stop();
  // key_ survives: the pooled stack keeps its PKI (see LiveSystem::reset).
  service_->restore(pristine_state_);
  view_ = 0;
  applied_seq_ = 0;
  executed_count_ = 0;
  last_primary_sign_of_life_ = 0.0;
  requests_.clear();
}

PbReplica::~PbReplica() { stop(); }

void PbReplica::start() {
  FORTRESS_EXPECTS(!running_);
  running_ = true;
  last_primary_sign_of_life_ = sim_.now();
  heartbeat_timer_.start();
  failover_timer_.start();
}

void PbReplica::stop() {
  if (!running_) return;
  running_ = false;
  heartbeat_timer_.stop();
  failover_timer_.stop();
}

void PbReplica::broadcast(const Message& msg) {
  Bytes wire = network_.acquire_buffer();
  msg.encode_into(wire);
  broadcast_wire(std::move(wire));
}

void PbReplica::broadcast_wire(Bytes wire) {
  // Encoded once into a pooled buffer; each recipient gets a pooled copy.
  for (std::uint32_t i = 0; i < replica_ids_.size(); ++i) {
    if (i == config_.index) continue;
    network_.send_copy(id_, replica_ids_[i], wire);
  }
  network_.recycle_buffer(std::move(wire));
}

void PbReplica::handle_message(const net::Envelope& env) {
  // Zero-copy dispatch (see SmrReplica::handle_message).
  auto msg = MessageView::decode(env.payload);
  if (!msg) return;  // not protocol traffic; ignore
  switch (msg->type()) {
    case MsgType::Request:
      handle_request(env, *msg);
      break;
    case MsgType::StateUpdate:
      handle_state_update(*msg);
      break;
    case MsgType::Heartbeat:
      handle_heartbeat(*msg);
      break;
    case MsgType::ViewChange:
      handle_view_change(*msg);
      break;
    default:
      break;  // other planes (SMR/NS) are not ours
  }
}

void PbReplica::handle_request(const net::Envelope& env,
                               const MessageView& msg) {
  const std::uint64_t hash =
      request_key_hash(msg.request_client(), msg.request_seq());
  RequestState& req =
      requests_.find_or_insert(msg.request_client(), msg.request_seq(), hash);
  insert_sorted_unique(req.requesters, env.from);

  if (req.has_response) {
    send_response(req, env.from);  // duplicate: re-reply from cache
    return;
  }
  if (!is_primary()) return;  // backups wait for the state update

  // Execute (the service may be non-deterministic; only the primary runs it).
  req.response = service_->execute(msg.payload());
  req.has_response = true;
  ++applied_seq_;
  ++executed_count_;

  // Encoded straight into the pooled wire buffer, service snapshot included.
  MessageFields update;
  update.type = MsgType::StateUpdate;
  update.view = view_;
  update.seq = applied_seq_;
  update.sender_index = config_.index;
  update.client = req.rid.client;
  update.rid_seq = req.rid.seq;
  update.requester = network_.address_of(env.from);
  update.payload = req.response;
  Bytes wire = network_.acquire_buffer();
  encode_unsigned_into(wire, update,
                       [this](Bytes& out) { service_->append_snapshot(out); });
  broadcast_wire(std::move(wire));

  respond_to_all(req);
}

void PbReplica::handle_state_update(const MessageView& msg) {
  if (msg.view() < view_) return;  // stale primary
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() != msg.view() % config_.replicas.size()) return;
  last_primary_sign_of_life_ = sim_.now();
  // Resolve the wire-carried requester WITHOUT interning: an address the
  // interner has never seen was never attachable on this network, so a
  // response to it could only be dropped — and a forged StateUpdate must
  // not grow the trial-persistent interner with garbage strings.
  const net::HostId requester = msg.requester().empty()
                                    ? net::kInvalidHost
                                    : network_.id_of(msg.requester());
  const std::uint64_t hash =
      request_key_hash(msg.request_client(), msg.request_seq());
  if (msg.seq() <= applied_seq_) {
    // Duplicate/old update; still make sure the requester gets an answer.
    RequestState* req =
        requests_.find(msg.request_client(), msg.request_seq(), hash);
    if (req != nullptr && req->has_response &&
        requester != net::kInvalidHost) {
      send_response(*req, requester);
    }
    return;
  }
  service_->restore(msg.aux());
  applied_seq_ = msg.seq();
  RequestState& req =
      requests_.find_or_insert(msg.request_client(), msg.request_seq(), hash);
  req.has_response = true;
  req.response.assign(msg.payload().begin(), msg.payload().end());
  if (requester != net::kInvalidHost) {
    insert_sorted_unique(req.requesters, requester);
  }
  respond_to_all(req);
}

void PbReplica::send_response(const RequestState& req, net::HostId to) {
  respond_many(req, std::span<const net::HostId>(&to, 1));
}

void PbReplica::respond_to_all(const RequestState& req) {
  respond_many(req, req.requesters);
}

void PbReplica::respond_many(const RequestState& req,
                             std::span<const net::HostId> recipients) {
  FORTRESS_EXPECTS(req.has_response);
  if (recipients.empty()) return;
  // The Response signature covers the requester-blanked core, so every
  // recipient shares one HMAC: sign once, splice the requester into each
  // wire copy (SignedResponseTemplate, rebuilt in place from borrowed
  // fields).
  MessageFields core;
  core.type = MsgType::Response;
  core.view = view_;
  core.seq = applied_seq_;
  core.sender_index = config_.index;
  core.client = req.rid.client;
  core.rid_seq = req.rid.seq;
  core.payload = req.response;
  response_template_.rebuild(core, key_);
  for (net::HostId to : recipients) {
    Bytes wire = network_.acquire_buffer();
    response_template_.emit_into(wire, network_.address_of(to));
    network_.send(id_, to, std::move(wire));
  }
}

void PbReplica::send_heartbeat() {
  if (!is_primary()) return;
  Message hb;
  hb.type = MsgType::Heartbeat;
  hb.view = view_;
  hb.sender_index = config_.index;
  broadcast(hb);
}

void PbReplica::handle_heartbeat(const MessageView& msg) {
  if (msg.view() < view_) return;
  if (msg.view() > view_) adopt_view(msg.view());
  if (msg.sender_index() == msg.view() % config_.replicas.size()) {
    last_primary_sign_of_life_ = sim_.now();
  }
}

void PbReplica::check_failover() {
  if (is_primary()) return;
  if (sim_.now() - last_primary_sign_of_life_ < config_.failover_timeout) {
    return;
  }
  // Primary presumed crashed: move to the next view. PB tolerates crash
  // faults only, so an unilateral, gossiped view bump suffices.
  std::uint64_t next = view_ + 1;
  FORTRESS_LOG_INFO("pb") << address() << " suspects primary of view "
                          << view_ << "; moving to view " << next;
  Message vc;
  vc.type = MsgType::ViewChange;
  vc.view = next;
  vc.sender_index = config_.index;
  broadcast(vc);
  adopt_view(next);
}

void PbReplica::handle_view_change(const MessageView& msg) {
  if (msg.view() > view_) adopt_view(msg.view());
}

void PbReplica::adopt_view(std::uint64_t view) {
  FORTRESS_EXPECTS(view > view_);
  view_ = view;
  last_primary_sign_of_life_ = sim_.now();
  if (is_primary()) {
    FORTRESS_LOG_INFO("pb") << address() << " is primary of view " << view_;
    send_heartbeat();
  }
}

void PbReplica::handle_reboot() {
  // Durable state (service_, responses_) survives; only liveness bookkeeping
  // resets so a freshly rebooted backup does not instantly suspect the
  // primary it has not heard from while down.
  last_primary_sign_of_life_ = sim_.now();
}

}  // namespace fortress::replication
