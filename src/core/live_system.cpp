#include "core/live_system.hpp"

#include <cmath>

#include "common/check.hpp"
#include "replication/service.hpp"

namespace fortress::core {

namespace {

struct TierSizes {
  int servers;
  int proxies;
};

// The tier sizes the Live* constructors deploy for `kind` under `plan`, and
// what deploys() compares against. S0 is an SMR quorum, so its deployment
// size must be a valid 3f+1. Plans are swept across classes unchanged, so
// n_servers is treated as a floor: deploy the smallest 3f+1 >= max(4,
// n_servers) (never fewer machines than requested; 3 -> 4, 5 or 6 -> 7, ...).
TierSizes deployed_tiers(model::SystemKind kind,
                         const net::ScenarioPlan& plan) {
  switch (kind) {
    case model::SystemKind::S0: {
      const int f = plan.n_servers >= 4 ? (plan.n_servers + 1) / 3 : 1;
      return {3 * f + 1, 0};
    }
    case model::SystemKind::S1:
      return {plan.n_servers, 0};
    case model::SystemKind::S2:
      return {plan.n_servers, plan.n_proxies};
  }
  FORTRESS_CHECK(false);
  return {0, 0};
}

// The network's stream is keyed by the trial seed (see begin_trial).
net::NetworkConfig network_config(const net::ScenarioPlan& plan,
                                  std::uint64_t seed) {
  return net::NetworkConfig::from_plan(plan, seed ^ 0xABCDULL);
}

}  // namespace

LiveSystem::LiveSystem(sim::Simulator& sim, const net::ScenarioPlan& plan,
                       std::uint64_t seed, model::SystemKind kind)
    : sim_(sim),
      kind_(kind),
      registry_(seed ^ 0xF0F0F0F0ULL),
      // from_plan validates the plan before any machine is wired.
      network_(std::make_unique<net::Network>(sim,
                                              network_config(plan, seed))),
      scheduler_(std::make_unique<osl::ObfuscationScheduler>(
          sim, osl::ObfuscationConfig{})) {}

osl::Machine& LiveSystem::add_node(
    Tier tier, osl::MachineConfig mc, std::unique_ptr<osl::Application> app,
    std::function<void(const net::ScenarioPlan&)> reset_app,
    std::function<void()> start_app) {
  FORTRESS_EXPECTS(tier == Tier::Proxy || tier_size(Tier::Proxy) == 0);
  const std::uint64_t salt = (tier == Tier::Server ? 1 : 0x1000) +
                             static_cast<std::uint64_t>(tier_size(tier));
  auto machine = std::make_unique<osl::Machine>(*network_, std::move(mc));
  machine->set_application(app.get());
  nodes_.push_back(Node{tier, std::move(machine), std::move(app), salt,
                        std::move(reset_app), std::move(start_app)});
  return *nodes_.back().machine;
}

void LiveSystem::begin_trial(const net::ScenarioPlan& plan,
                             std::uint64_t seed) {
  // First, so an invalid plan throws before any per-trial state changes.
  network_->reset(network_config(plan, seed));
  step_duration_ = plan.step_duration;
  osl::ObfuscationConfig obf_cfg;
  obf_cfg.step_duration = plan.step_duration;
  obf_cfg.policy = plan.rerandomize ? osl::ObfuscationPolicy::Rerandomize
                                    : osl::ObfuscationPolicy::Recover;
  obf_cfg.keyspace = plan.keyspace;
  obf_cfg.rng_seed = seed ^ 0x5EEDULL;
  scheduler_->reset(obf_cfg);
  nameserver_->reset();
  failure_time_.reset();
  on_failure = nullptr;
  for (Node& n : nodes_) {
    osl::Machine& m = *n.machine;
    m.reset(plan.keyspace);
    m.add_compromise_listener([this](osl::Machine&) {
      if (compromise_rule()) latch_failure();
    });
    // Service-time streams are independent across machines: each is keyed
    // by the trial seed and the node's stable salt.
    m.configure_service(plan.service,
                        seed ^ 0x5E41CEULL ^
                            (n.service_salt * 0x9E3779B97F4A7C15ULL));
    n.reset_app(plan);
  }
}

void LiveSystem::reset(const net::ScenarioPlan& plan, std::uint64_t seed) {
  FORTRESS_EXPECTS(deploys(kind_, plan));
  // The KeyRegistry is the one component begin_trial() leaves alone: it
  // keeps the master it was constructed with (the pooled stack keeps its
  // PKI across trials the way a real testbed keeps its CA). Signing
  // secrets are substrate-internal (signature.hpp's SUBSTITUTION NOTE —
  // the paper's analysis does not depend on the signature scheme),
  // signatures are fixed-size, and sign/verify outcomes depend only on key
  // CONSISTENCY, so no trial observable depends on the master seed.
  // Skipping the re-key avoids recomputing one HMAC key schedule per
  // principal per trial — the dominant reset cost at small horizons.
  begin_trial(plan, seed);
}

bool LiveSystem::deploys(model::SystemKind kind,
                         const net::ScenarioPlan& plan) const {
  const TierSizes want = deployed_tiers(kind, plan);
  return kind == kind_ && want.servers == tier_size(Tier::Server) &&
         want.proxies == tier_size(Tier::Proxy);
}

void LiveSystem::start() {
  scheduler_->boot_all();
  for (Node& n : nodes_) n.start_app();
  scheduler_->start();
}

const LiveSystem::Node& LiveSystem::node(Tier tier, int index) const {
  FORTRESS_EXPECTS(index >= 0 && index < tier_size(tier));
  for (const Node& n : nodes_) {
    if (n.tier == tier && index-- == 0) return n;
  }
  FORTRESS_CHECK(false);
  return nodes_.front();
}

int LiveSystem::tier_size(Tier tier) const {
  int count = 0;
  for (const Node& n : nodes_) count += n.tier == tier ? 1 : 0;
  return count;
}

std::vector<osl::Machine*> LiveSystem::tier_machines(Tier tier) {
  std::vector<osl::Machine*> out;
  for (Node& n : nodes_) {
    if (n.tier == tier) out.push_back(n.machine.get());
  }
  return out;
}

int LiveSystem::compromised_in(Tier tier) const {
  int count = 0;
  for (const Node& n : nodes_) {
    if (n.tier == tier && n.machine->compromised()) ++count;
  }
  return count;
}

osl::Machine* LiveSystem::fault_target(Tier tier, int index) {
  if (index < 0 || index >= tier_size(tier)) return nullptr;
  return node(tier, index).machine.get();
}

std::vector<const osl::Machine*> LiveSystem::service_machines() const {
  std::vector<const osl::Machine*> out;
  for (const Node& n : nodes_) out.push_back(n.machine.get());
  return out;
}

std::optional<std::uint64_t> LiveSystem::failure_step() const {
  if (!failure_time_) return std::nullopt;
  return static_cast<std::uint64_t>(*failure_time_ / step_duration_);
}

void LiveSystem::latch_failure() {
  if (failure_time_) return;
  failure_time_ = sim_.now();
  if (on_failure) on_failure();
}

// --- LiveS1 -----------------------------------------------------------------

LiveS1::LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed, model::SystemKind::S1) {
  FORTRESS_EXPECTS(factory != nullptr);
  const int n_servers = deployed_tiers(kind_, plan).servers;
  std::vector<net::Address> addrs;
  for (int i = 0; i < n_servers; ++i) {
    addrs.push_back("s1-server-" + std::to_string(i));
  }
  replication::PbConfig pb;
  pb.replicas = addrs;
  pb.heartbeat_interval = kHeartbeatInterval;
  pb.failover_timeout = kFailoverTimeout;

  std::vector<osl::Machine*> group;
  for (int i = 0; i < n_servers; ++i) {
    pb.index = static_cast<std::uint32_t>(i);
    auto replica = std::make_unique<replication::PbReplica>(
        sim_, *network_, registry_,
        factory(static_cast<std::uint32_t>(i)), pb);
    replication::PbReplica* r = replica.get();
    group.push_back(&add_node(
        Tier::Server, {addrs[static_cast<std::size_t>(i)], plan.keyspace},
        std::move(replica), [r](const net::ScenarioPlan&) { r->reset(); },
        [r] { r->start(); }));
  }
  // One shared key for the whole PB tier (§3).
  scheduler_->add_shared_group(group);

  directory_.replication = ReplicationType::PrimaryBackup;
  directory_.f = 0;
  directory_.server_addrs = addrs;
  directory_.server_principals = addrs;  // principals == addresses
  nameserver_ = std::make_unique<NameServer>(*network_, registry_, directory_);
  begin_trial(plan, seed);
}

bool LiveS1::compromise_rule() const {
  return compromised_in(Tier::Server) > 0;
}

std::vector<osl::Machine*> LiveS1::direct_attack_surface() {
  // The whole tier shares one key (§3), so there is exactly ONE direct
  // channel (Definition 2): probing more machines with the same enumeration
  // would overcount the model's per-channel rate omega. The primary stands
  // in for the tier.
  return {&server_machine(0)};
}

// --- LiveS0 -----------------------------------------------------------------

LiveS0::LiveS0(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, DeterministicServiceFactory factory)
    : LiveSystem(sim, plan, seed, model::SystemKind::S0) {
  FORTRESS_EXPECTS(factory != nullptr);
  const auto n =
      static_cast<std::uint32_t>(deployed_tiers(kind_, plan).servers);
  const std::uint32_t f = (n - 1) / 3;
  std::vector<net::Address> addrs;
  for (std::uint32_t i = 0; i < n; ++i) {
    addrs.push_back("s0-replica-" + std::to_string(i));
  }
  replication::SmrConfig smr;
  smr.f = f;
  smr.replicas = addrs;
  smr.heartbeat_interval = kHeartbeatInterval;
  smr.progress_timeout = kFailoverTimeout;

  std::vector<osl::Machine*> batch;
  for (std::uint32_t i = 0; i < n; ++i) {
    smr.index = i;
    auto replica = std::make_unique<replication::SmrReplica>(
        sim_, *network_, registry_, factory(i), smr);
    replication::SmrReplica* r = replica.get();
    batch.push_back(&add_node(
        Tier::Server, {addrs[i], plan.keyspace}, std::move(replica),
        [r](const net::ScenarioPlan&) { r->reset(); }, [r] { r->start(); }));
  }
  // Distinct keys, staggered reboot batches (Roeder-Schneider).
  scheduler_->add_staggered_batch(batch);

  directory_.replication = ReplicationType::StateMachine;
  directory_.f = f;
  directory_.server_addrs = addrs;
  directory_.server_principals = addrs;
  nameserver_ = std::make_unique<NameServer>(*network_, registry_, directory_);
  begin_trial(plan, seed);
}

bool LiveS0::compromise_rule() const {
  // Definition 1: compromised as soon as more than one node is compromised.
  return currently_compromised() >= 2;
}

std::vector<osl::Machine*> LiveS0::direct_attack_surface() {
  return tier_machines(Tier::Server);
}

// --- LiveS2 -----------------------------------------------------------------

LiveS2::LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
               std::uint64_t seed, ServiceFactory factory)
    : LiveSystem(sim, plan, seed, model::SystemKind::S2) {
  FORTRESS_EXPECTS(factory != nullptr);
  const TierSizes tiers = deployed_tiers(kind_, plan);
  for (int i = 0; i < tiers.servers; ++i) {
    server_addrs_.push_back("s2-server-" + std::to_string(i));
  }
  std::vector<net::Address> proxy_addrs;
  for (int i = 0; i < tiers.proxies; ++i) {
    proxy_addrs.push_back("s2-proxy-" + std::to_string(i));
  }

  replication::PbConfig pb;
  pb.replicas = server_addrs_;
  pb.heartbeat_interval = kHeartbeatInterval;
  pb.failover_timeout = kFailoverTimeout;

  std::vector<osl::Machine*> server_group;
  for (int i = 0; i < tiers.servers; ++i) {
    pb.index = static_cast<std::uint32_t>(i);
    auto replica = std::make_unique<replication::PbReplica>(
        sim_, *network_, registry_, factory(static_cast<std::uint32_t>(i)),
        pb);
    replication::PbReplica* r = replica.get();
    server_group.push_back(&add_node(
        Tier::Server,
        {server_addrs_[static_cast<std::size_t>(i)], plan.keyspace},
        std::move(replica), [r](const net::ScenarioPlan&) { r->reset(); },
        [r] { r->start(); }));
  }
  scheduler_->add_shared_group(server_group);

  // The detection knobs are per-trial: the reset hook installs the plan's.
  proxy::ProxyConfig pxy;
  pxy.servers = server_addrs_;
  for (int i = 0; i < tiers.proxies; ++i) {
    pxy.address = proxy_addrs[static_cast<std::size_t>(i)];
    osl::MachineConfig mc{pxy.address, plan.keyspace};
    mc.processes_request_payloads = false;  // proxies do no processing (§3)
    auto node = std::make_unique<proxy::ProxyNode>(sim_, *network_, registry_,
                                                   pxy);
    proxy::ProxyNode* p = node.get();
    // Individually distinct proxy keys.
    scheduler_->add_machine(add_node(
        Tier::Proxy, mc, std::move(node),
        [p](const net::ScenarioPlan& trial) {
          p->reset(trial.proxy_blacklist,
                   {trial.detection_window, trial.detection_threshold});
        },
        [p] { p->start(); }));
  }

  // Clients learn proxies' addresses and servers' principal names (indices)
  // — NOT server addresses (§3).
  directory_.replication = ReplicationType::PrimaryBackup;
  directory_.f = 0;
  directory_.proxies = proxy_addrs;
  directory_.server_principals = server_addrs_;
  nameserver_ = std::make_unique<NameServer>(*network_, registry_, directory_);
  begin_trial(plan, seed);
}

bool LiveS2::compromise_rule() const {
  return compromised_in(Tier::Server) > 0 ||
         compromised_in(Tier::Proxy) == tier_size(Tier::Proxy);
}

std::vector<osl::Machine*> LiveS2::direct_attack_surface() {
  return tier_machines(Tier::Proxy);
}

std::vector<osl::Machine*> LiveS2::launchpad_machines() {
  return tier_machines(Tier::Proxy);
}

std::vector<net::Address> LiveS2::hidden_server_addresses() const {
  return server_addrs_;
}

std::uint64_t LiveS2::blacklisted_sources() const {
  std::uint64_t total = 0;
  for (const Node& n : nodes_) {
    if (n.tier == Tier::Proxy) {
      total += static_cast<const proxy::ProxyNode&>(*n.app).blacklist_size();
    }
  }
  return total;
}

std::unique_ptr<LiveSystem> make_live_system(sim::Simulator& sim,
                                             model::SystemKind kind,
                                             const net::ScenarioPlan& plan,
                                             std::uint64_t seed) {
  ServiceFactory kv = [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  };
  switch (kind) {
    case model::SystemKind::S0: {
      DeterministicServiceFactory det_kv = [](std::uint32_t) {
        return std::make_unique<replication::KvService>();
      };
      return std::make_unique<LiveS0>(sim, plan, seed, det_kv);
    }
    case model::SystemKind::S1:
      return std::make_unique<LiveS1>(sim, plan, seed, kv);
    case model::SystemKind::S2:
      return std::make_unique<LiveS2>(sim, plan, seed, kv);
  }
  FORTRESS_CHECK(false);
  return nullptr;
}

}  // namespace fortress::core
