#include "attack/derand_attacker.hpp"

#include "common/check.hpp"
#include "common/log.hpp"
#include "osl/probe.hpp"
#include "replication/message.hpp"

namespace fortress::attack {

DerandAttacker::DerandAttacker(sim::Simulator& sim, net::Network& network,
                               AttackerConfig config)
    : sim_(sim), network_(network), config_(std::move(config)) {
  FORTRESS_EXPECTS(config_.sybil_identities >= 1);
  identities_.push_back(config_.address);
  for (unsigned i = 1; i < config_.sybil_identities; ++i) {
    identities_.push_back(config_.address + "-sybil-" + std::to_string(i));
  }
  identity_ids_.reserve(identities_.size());
  for (const net::Address& id : identities_) {
    identity_ids_.push_back(network_.intern(id));
  }
}

DerandAttacker::~DerandAttacker() {
  stop();
  for (net::HostId id : identity_ids_) network_.detach(id);
}

void DerandAttacker::add_direct_target(osl::Machine& target) {
  FORTRESS_EXPECTS(!running_);
  auto channel = std::make_unique<Channel>();
  channel->kind = Channel::Kind::Direct;
  channel->target = &target;
  channel->target_id = target.id();
  channels_.push_back(std::move(channel));
}

void DerandAttacker::set_indirect_channel(std::vector<net::Address> proxies) {
  FORTRESS_EXPECTS(!running_);
  indirect_proxies_.clear();
  indirect_proxies_.reserve(proxies.size());
  for (const net::Address& proxy : proxies) {
    indirect_proxies_.push_back(network_.intern(proxy));
  }
}

void DerandAttacker::add_launchpad(osl::Machine& pad,
                                   std::vector<net::Address> servers) {
  FORTRESS_EXPECTS(!running_);
  for (const net::Address& server : servers) {
    auto channel = std::make_unique<Channel>();
    channel->kind = Channel::Kind::Pad;
    channel->pad = &pad;
    channel->target_id = network_.intern(server);
    channels_.push_back(std::move(channel));
  }
}

void DerandAttacker::reset(const AttackerConfig& config,
                           bool indirect_active) {
  FORTRESS_EXPECTS(!running_);
  FORTRESS_EXPECTS(config.sybil_identities == identities_.size());
  FORTRESS_EXPECTS(config.keyspace >= 2);
  FORTRESS_EXPECTS(config.probes_per_step > 0);
  FORTRESS_EXPECTS(!indirect_active || !indirect_proxies_.empty());
  config_ = config;
  rng_ = Rng(config_.seed);
  stats_ = AttackerStats{};
  by_conn_.clear();
  // Offsets are drawn in channel (wiring) order, then the indirect one.
  for (auto& channel : channels_) {
    Channel& ch = *channel;
    ch = Channel{ch.kind, ch.target, ch.pad, ch.target_id};
    ch.enum_offset = rng_.below(config_.keyspace);
    if (ch.kind == Channel::Kind::Pad) {
      // The attacker sees exactly what its implant on the pad sees.
      ch.pad->set_attacker_taps(
          [this](const net::Envelope& env) { on_message(env); },
          [this](net::ConnectionId id, net::CloseReason reason) {
            on_connection_closed(id, net::kInvalidHost, reason);
          });
    }
  }
  // When inactive this trial a wired proxy list is inert: start() only arms
  // the indirect timer for indirect_probes_per_step > 0.
  indirect_offset_ = indirect_active ? rng_.below(config_.keyspace) : 0;
  indirect_next_ = 0;
  indirect_rotate_ = 0;
  request_seq_ = 0;
  for (net::HostId id : identity_ids_) network_.attach(id, *this);
}

void DerandAttacker::start() {
  FORTRESS_EXPECTS(!running_);
  FORTRESS_EXPECTS(network_.attached(identity_ids_.front()));  // reset() ran
  running_ = true;
  const sim::Time direct_interval =
      config_.step_duration / config_.probes_per_step;
  for (auto& channel : channels_) {
    Channel* ch = channel.get();
    ch->timer = std::make_unique<sim::PeriodicTimer>(
        sim_, direct_interval, [this, ch] { tick(*ch); });
    // Random phase so channels do not fire in lockstep.
    ch->timer->start_after(direct_interval * rng_.uniform01());
  }
  if (!indirect_proxies_.empty() && config_.indirect_probes_per_step > 0) {
    const sim::Time indirect_interval =
        config_.step_duration / config_.indirect_probes_per_step;
    indirect_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, indirect_interval, [this] { tick_indirect(); });
    indirect_timer_->start_after(indirect_interval * rng_.uniform01());
  }
}

void DerandAttacker::stop() {
  if (!running_) return;
  running_ = false;
  for (auto& channel : channels_) channel->timer.reset();
  indirect_timer_.reset();
}

osl::RandKey DerandAttacker::next_guess(Channel& channel) {
  // Keys that worked before are retried first (defeats proactive recovery).
  if (channel.learned_ix < channel.learned_keys.size()) {
    return channel.learned_keys[channel.learned_ix++];
  }
  osl::RandKey guess =
      (channel.enum_offset + channel.next_candidate) % config_.keyspace;
  ++channel.next_candidate;
  if (channel.next_candidate >= config_.keyspace) {
    channel.next_candidate = 0;  // wrap: keep sweeping (PO moves the key)
  }
  return guess;
}

void DerandAttacker::learn_key(Channel& channel, osl::RandKey key) {
  for (osl::RandKey k : channel.learned_keys) {
    if (k == key) return;
  }
  channel.learned_keys.push_back(key);
  ++stats_.keys_learned;
}

void DerandAttacker::tick(Channel& channel) {
  if (channel.kind == Channel::Kind::Pad) {
    // The pad must currently be under our control; otherwise lie dormant.
    if (channel.pad == nullptr || !channel.pad->compromised()) {
      if (channel.conn) {
        by_conn_.erase(*channel.conn);
        channel.conn.reset();
      }
      channel.controlled = false;
      channel.in_flight.reset();
      return;
    }
  }
  if (channel.controlled) {
    // Verify control is still live (reboot kills the implant). Direct
    // channels notice via connection closure; double-check the flag.
    osl::Machine* m =
        channel.kind == Channel::Kind::Direct ? channel.target : nullptr;
    if (m != nullptr && !m->compromised()) {
      channel.controlled = false;
      channel.learned_ix = 0;  // retry learned keys first
    } else {
      return;  // nothing to do while we own it
    }
  }
  if (channel.in_flight) return;  // outcome of the last probe still pending

  // Ensure a connection to the victim.
  if (!channel.conn) {
    std::optional<net::ConnectionId> conn;
    if (channel.kind == Channel::Kind::Pad) {
      conn = channel.pad->attacker_connect(channel.target_id);
    } else {
      conn = network_.connect(identity_ids_.front(), channel.target_id);
    }
    if (!conn) return;  // victim mid-reboot; retry next tick
    channel.conn = conn;
    by_conn_[*conn] = &channel;
    // Fall through: dial and probe within the same tick, so the achieved
    // rate equals the configured ω even though every wrong guess costs a
    // reconnection.
  }

  osl::RandKey guess = next_guess(channel);
  channel.in_flight = guess;
  ++stats_.direct_probes;
  Bytes probe = network_.acquire_buffer();
  osl::encode_probe_into(probe, guess);
  bool sent = false;
  if (channel.kind == Channel::Kind::Pad) {
    sent = channel.pad->attacker_send_on(*channel.conn, std::move(probe));
  } else {
    sent = network_.send_on(*channel.conn, identity_ids_.front(),
                            std::move(probe));
  }
  if (!sent) {
    // Connection raced with a teardown; drop it and retry.
    by_conn_.erase(*channel.conn);
    channel.conn.reset();
    channel.in_flight.reset();
  }
}

void DerandAttacker::tick_indirect() {
  if (indirect_proxies_.empty()) return;
  osl::RandKey guess =
      (indirect_offset_ + indirect_next_) % config_.keyspace;
  ++indirect_next_;
  if (indirect_next_ >= config_.keyspace) indirect_next_ = 0;

  // Rotate both the presented identity (Sybil evasion) and the proxy the
  // crafted request goes through (spreads the crash observations so no one
  // proxy accumulates them — the §2.2 load-balancing blind spot).
  const std::size_t identity_ix = indirect_rotate_ % identities_.size();
  const net::Address& identity = identities_[identity_ix];

  // A well-formed service request whose payload carries the exploit.
  replication::Message msg;
  msg.type = replication::MsgType::Request;
  msg.request_id = replication::RequestId{identity, ++request_seq_};
  msg.requester = identity;
  msg.payload = osl::encode_probe(guess);

  const net::HostId proxy =
      indirect_proxies_[indirect_rotate_ % indirect_proxies_.size()];
  ++indirect_rotate_;
  Bytes wire = network_.acquire_buffer();
  msg.encode_into(wire);
  network_.send(identity_ids_[identity_ix], proxy, std::move(wire));
  ++stats_.indirect_probes;
}

void DerandAttacker::on_message(const net::Envelope& env) {
  if (!osl::is_owned_ack(env.payload)) return;
  if (!env.connection) return;
  auto it = by_conn_.find(*env.connection);
  if (it == by_conn_.end()) return;
  Channel& channel = *it->second;
  channel.controlled = true;
  ++stats_.compromises;
  if (channel.in_flight) {
    learn_key(channel, *channel.in_flight);
    channel.in_flight.reset();
  }
  FORTRESS_LOG_INFO("attack")
      << "controls " << network_.address_of(channel.target_id);
}

void DerandAttacker::on_connection_closed(net::ConnectionId id,
                                          net::HostId /*peer*/,
                                          net::CloseReason reason) {
  auto it = by_conn_.find(id);
  if (it == by_conn_.end()) return;
  Channel& channel = *it->second;
  by_conn_.erase(it);
  channel.conn.reset();
  if (reason == net::CloseReason::PeerCrashed) {
    // The probed child crashed: the in-flight guess was wrong.
    ++stats_.crashes_caused;
    channel.in_flight.reset();
  } else {
    // Orderly closure = the victim rebooted: control (if any) is gone and
    // an unresolved guess is unknowable — retry it.
    channel.controlled = false;
    channel.learned_ix = 0;
    if (channel.in_flight) {
      // Put the guess back by rewinding one candidate if it came from the
      // enumeration (learned keys are retried via learned_ix anyway).
      channel.in_flight.reset();
      if (channel.next_candidate > 0) --channel.next_candidate;
    }
  }
}

int DerandAttacker::controlled_targets() const {
  int count = 0;
  for (const auto& channel : channels_) {
    if (channel->controlled) ++count;
  }
  return count;
}

}  // namespace fortress::attack
