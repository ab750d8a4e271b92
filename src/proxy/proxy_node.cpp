#include "proxy/proxy_node.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace fortress::proxy {

using replication::Message;
using replication::MessageView;
using replication::MsgType;

ProxyNode::ProxyNode(sim::Simulator& sim, net::Network& network,
                     crypto::KeyRegistry& registry, ProxyConfig config)
    : sim_(sim),
      network_(network),
      registry_(registry),
      key_(registry.enroll(config.address)),
      config_(std::move(config)),
      log_(config_.detection) {
  FORTRESS_EXPECTS(!config_.servers.empty());
  self_id_ = network_.intern(config_.address);
  servers_.resize(config_.servers.size());
  server_schedules_.resize(config_.servers.size(), nullptr);
  for (std::size_t i = 0; i < config_.servers.size(); ++i) {
    servers_[i].id = network_.intern(config_.servers[i]);
  }
}

void ProxyNode::start() {
  started_ = true;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    // The server tier is fully enrolled by the time a proxy starts; cache
    // each server's verification schedule so the per-response check skips
    // the registry's string-map lookup.
    server_schedules_[i] = registry_.schedule_for(config_.servers[i]);
    dial_server(i);
  }
}

void ProxyNode::reset(bool blacklist_enabled, DetectionConfig detection) {
  started_ = false;
  // key_ survives: the pooled stack keeps its PKI (see LiveSystem::reset).
  config_.blacklist_enabled = blacklist_enabled;
  config_.detection = detection;
  stats_ = ProxyStats{};
  log_.reset(detection);
  for (ServerLink& link : servers_) {
    link.conn.reset();
    link.last_source = net::kInvalidHost;
    link.dead_conns.clear();
  }
  std::fill(server_schedules_.begin(), server_schedules_.end(), nullptr);
  pending_.clear();
  blacklist_.clear();
}

void ProxyNode::dial_server(std::size_t index) {
  if (!started_) return;
  ServerLink& link = servers_[index];
  if (link.conn) return;
  auto conn = network_.connect(self_id_, link.id);
  if (!conn) {
    // Server down (rebooting): retry after the configured delay.
    sim_.schedule_after(config_.reconnect_delay,
                        [this, index] { dial_server(index); });
    return;
  }
  link.conn = *conn;
}

bool ProxyNode::blacklisted(const net::Address& source) const {
  const net::HostId id = network_.id_of(source);
  return id != net::kInvalidHost && blacklisted(id);
}

void ProxyNode::handle_message(const net::Envelope& env) {
  // Zero-copy dispatch: requests are forwarded (and responses over-signed)
  // by splicing the wire bytes — the proxy never materializes a message.
  auto msg = MessageView::decode(env.payload);
  if (!msg) {
    // Not protocol traffic at all: log the sender as having submitted an
    // invalid request (this is how failed DIRECT probes at the proxy appear
    // to the application layer — although raw probes never reach here, any
    // other malformed bytes do).
    ++stats_.malformed_requests;
    log_.record(env.from, Suspicion::MalformedRequest, sim_.now());
    if (config_.blacklist_enabled && log_.flagged(env.from, sim_.now())) {
      blacklist_.insert(env.from);
    }
    return;
  }
  switch (msg->type()) {
    case MsgType::Request:
      handle_client_request(env, *msg);
      break;
    case MsgType::Response:
      handle_server_response(env, *msg);
      break;
    default:
      break;
  }
}

std::optional<std::size_t> ProxyNode::stage_verify(
    const net::Envelope& env, crypto::BatchVerifier& batch) {
  // Only server Responses carry a signature this proxy checks; stage only
  // when the indexed fast path resolves (the schedule pointer is stable
  // until registry reset, which never happens while traffic is queued).
  auto msg = MessageView::decode(env.payload);
  if (!msg || msg->type() != MsgType::Response) return std::nullopt;
  return replication::stage_verify_from_indexed_peer(
      *msg, server_schedules_, config_.servers, batch);
}

void ProxyNode::handle_client_request(const net::Envelope& env,
                                      const MessageView& msg) {
  if (blacklist_.contains(env.from)) {
    ++stats_.requests_from_blacklisted;
    return;  // identified attacker: drop silently
  }
  PendingRequest& pending = pending_.find_or_insert(
      msg.request_client(), msg.request_seq(),
      replication::request_key_hash(msg.request_client(), msg.request_seq()));
  replication::insert_sorted_unique(pending.clients, env.from);

  // Re-forward on duplicates too (the earlier copy may have died with a
  // crashed child); servers dedup by request id.
  forward(msg);

  // Remember whom to blame if a server child now crashes.
  for (ServerLink& link : servers_) {
    if (link.conn) link.last_source = env.from;
  }
}

void ProxyNode::forward(const MessageView& msg) {
  // Splice once into a pooled buffer — the incoming wire bytes with only
  // the requester field rewritten to this proxy ("proxies do not do any
  // processing", and now the forward path literally does not re-encode);
  // every hop below sends a pooled copy.
  Bytes wire = network_.acquire_buffer();
  msg.encode_readdressed_into(wire, config_.address);
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    ServerLink& link = servers_[i];
    if (link.conn) {
      if (network_.send_on_copy(*link.conn, self_id_, wire)) {
        ++stats_.requests_forwarded;
        continue;
      }
      // Connection died under us (torn down server-side, notification
      // still in flight): park the attribution state so the closure, when
      // it arrives, still blames the right source, and fall through to
      // datagram + redial.
      link.dead_conns.emplace_back(*link.conn, link.last_source);
      link.conn.reset();
      link.last_source = net::kInvalidHost;
    }
    network_.send_copy(self_id_, link.id, wire);
    ++stats_.requests_forwarded;
    dial_server(i);
  }
  network_.recycle_buffer(std::move(wire));
}

void ProxyNode::handle_server_response(const net::Envelope& env,
                                       const MessageView& msg) {
  PendingRequest* pending = pending_.find(
      msg.request_client(), msg.request_seq(),
      replication::request_key_hash(msg.request_client(), msg.request_seq()));
  if (pending == nullptr) return;  // response to a request we never saw
  if (env.degraded) {
    // Overloaded machine under DegradeUnsigned: the dispatch is marked
    // degraded, so the proxy skips inner-signature verification and trusts
    // the response as-is — goodput holds, coverage drops (counted).
    ++stats_.degraded_responses;
  } else {
    // The machine may have staged this verification through the batched
    // crypto plane while the response waited in queue (stage_verify); the
    // precomputed verdict equals the one-shot check below by contract.
    const bool authentic =
        env.staged_verdict
            ? *env.staged_verdict
            : replication::verify_from_indexed_peer(msg, server_schedules_,
                                                    config_.servers,
                                                    registry_);
    if (!authentic) {
      ++stats_.invalid_signatures;
      log_.record(env.from, Suspicion::MalformedRequest, sim_.now());
      return;
    }
  }
  // Over-sign this authentic response and deliver to every client that has
  // not been answered yet (§3: "a proxy over-signs any ONE of the authentic
  // responses"). The over-signature covers the signed core + inner
  // signature — the requester is blanked in the signed form — so one
  // signature serves every client; each delivery is a wire splice.
  std::optional<crypto::Signature> over;
  for (net::HostId client : pending->clients) {
    if (std::binary_search(pending->answered.begin(), pending->answered.end(),
                           client)) {
      continue;
    }
    if (!over) {
      msg.over_signing_bytes_into(sign_scratch_);
      over = key_.sign(sign_scratch_);
    }
    Bytes wire = network_.acquire_buffer();
    msg.encode_proxy_response_into(wire, network_.address_of(client), *over);
    network_.send(self_id_, client, std::move(wire));
    replication::insert_sorted_unique(pending->answered, client);
    ++stats_.responses_delivered;
  }
}

void ProxyNode::observe_server_closure(net::HostId source,
                                       net::CloseReason reason) {
  if (reason != net::CloseReason::PeerCrashed) return;
  // A server child crashed serving something we forwarded: the §2.2
  // observation only a proxy can make. Attribute it to the last source
  // forwarded on that connection.
  ++stats_.server_crashes_observed;
  if (source == net::kInvalidHost) return;
  log_.record(source, Suspicion::CorrelatedCrash, sim_.now());
  if (config_.blacklist_enabled && log_.flagged(source, sim_.now())) {
    if (blacklist_.insert(source).second) {
      FORTRESS_LOG_INFO("proxy") << config_.address << " blacklists "
                                 << network_.address_of(source);
    }
  }
}

void ProxyNode::handle_connection_closed(net::ConnectionId id,
                                         net::HostId /*peer*/,
                                         net::CloseReason reason) {
  // Find which server link this connection belonged to (tiny linear scan;
  // closures are rare next to message traffic).
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    ServerLink& link = servers_[i];
    if (link.conn == id) {
      const net::HostId source = link.last_source;
      link.conn.reset();
      link.last_source = net::kInvalidHost;
      observe_server_closure(source, reason);
      sim_.schedule_after(config_.reconnect_delay,
                          [this, i] { dial_server(i); });
      return;
    }
    for (std::size_t d = 0; d < link.dead_conns.size(); ++d) {
      if (link.dead_conns[d].first != id) continue;
      // The notification for a connection a forward already found dead: a
      // redial is already underway (forward() dialed); only the crash
      // observation remains to be made.
      const net::HostId source = link.dead_conns[d].second;
      link.dead_conns.erase(link.dead_conns.begin() +
                            static_cast<std::ptrdiff_t>(d));
      observe_server_closure(source, reason);
      return;
    }
  }
}

void ProxyNode::handle_reboot() {
  // Connections died with the reboot; volatile pending state is lost
  // (clients retry). Blacklist and logs are durable (written to disk).
  for (ServerLink& link : servers_) {
    link.conn.reset();
    link.last_source = net::kInvalidHost;
    link.dead_conns.clear();
  }
  pending_.clear();
  for (std::size_t i = 0; i < servers_.size(); ++i) dial_server(i);
}

}  // namespace fortress::proxy
