// live_system.hpp — assembled, runnable deployments of the paper's three
// system classes (Definitions 1-3) on the simulation substrate.
//
// Each Live* owns its network, key registry, name-server, randomized
// machines, replica/proxy applications and obfuscation scheduler, and
// exposes the class-specific compromise predicate (tier sizes are those of
// the default plan):
//   LiveS0: 4-replica SMR, distinct keys, staggered recovery; compromised
//           when >= 2 replicas are simultaneously controlled.
//   LiveS1: 3-replica primary-backup, one shared key, direct clients;
//           compromised when any replica is controlled.
//   LiveS2: FORTRESS — 3 proxies (distinct keys) fronting the LiveS1 server
//           tier (shared key); compromised when any server is controlled or
//           all proxies are simultaneously controlled.
//
// One description of a live world: a net::ScenarioPlan plus a seed is the
// only input a deployment is built or reset from. The plan's tier sizes
// shape it (deployed_tiers, shared with deploys()); its network, keyspace,
// policy, step, detection and service fields configure each trial.
//
// One trial-initialization path: a constructor only WIRES the deployment
// (machines, applications, key-sharing groups, directory) and then calls
// begin_trial(plan, seed), the single function that initializes every piece
// of per-trial state. reset(plan, seed) calls the same begin_trial(), so a
// pooled deployment and a fresh one differ only in whether the wiring ran.
//
// The compromise predicate is latched: the moment it first holds, failed()
// becomes true and failure_time() records the simulation time.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/directory.hpp"
#include "model/params.hpp"
#include "core/nameserver.hpp"
#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/obfuscation.hpp"
#include "proxy/proxy_node.hpp"
#include "replication/pb_replica.hpp"
#include "replication/smr_replica.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {

/// Replication-protocol timers every deployment runs with (PB heartbeat and
/// failover; SMR heartbeat and progress timeout).
inline constexpr sim::Time kHeartbeatInterval = 5.0;
inline constexpr sim::Time kFailoverTimeout = 20.0;

/// Factory for the replicated service instance each replica runs.
using ServiceFactory =
    std::function<std::unique_ptr<replication::Service>(std::uint32_t index)>;
using DeterministicServiceFactory =
    std::function<std::unique_ptr<replication::DeterministicService>(
        std::uint32_t index)>;

/// Common machinery shared by the three deployments: the machines and the
/// applications they run, and the one per-trial initialization path.
class LiveSystem {
 public:
  using Tier = net::FaultEvent::Target;

  virtual ~LiveSystem() = default;
  LiveSystem(const LiveSystem&) = delete;
  LiveSystem& operator=(const LiveSystem&) = delete;

  net::Network& network() { return *network_; }
  crypto::KeyRegistry& registry() { return registry_; }
  const Directory& directory() const { return directory_; }
  osl::ObfuscationScheduler& scheduler() { return *scheduler_; }
  sim::Simulator& simulator() { return sim_; }

  /// Boot machines, start applications and the obfuscation clock.
  void start();

  /// Begin a NEW trial of (plan, seed) on this already-wired deployment:
  /// begin_trial(plan, seed) runs — the same per-trial initialization every
  /// constructor ends in, so a reset deployment and a freshly built one
  /// differ only in whether the wiring ran. The signature substrate keeps
  /// its construction-time PKI (no trial observable depends on it; see the
  /// note in the implementation). Precondition: deploys(kind, plan) for
  /// this system's class — per-trial knobs (keyspace, step duration,
  /// latency, detection, partitions, policy, service model) may differ.
  /// The caller resets the owning Simulator FIRST (pending events reference
  /// it).
  void reset(const net::ScenarioPlan& plan, std::uint64_t seed);

  /// True when make_live_system(kind, plan, ·) deploys exactly this system's
  /// class and tier sizes, i.e. when reset(plan, ·) may reuse it.
  bool deploys(model::SystemKind kind, const net::ScenarioPlan& plan) const;

  /// Latched compromise predicate.
  bool failed() const { return failure_time_.has_value(); }
  std::optional<sim::Time> failure_time() const { return failure_time_; }
  /// Whole unit steps elapsed before compromise (the live EL sample).
  std::optional<std::uint64_t> failure_step() const;

  /// Invoked once, at the moment the compromise predicate first latches.
  /// Campaign trials use this to stop the simulation early.
  std::function<void()> on_failure;

  std::uint64_t steps_completed() const { return scheduler_->steps_completed(); }

  // --- class-generic topology hooks (the campaign runner drives every
  // system class through these) -------------------------------------------

  /// The machines a de-randomization attacker can probe directly: servers
  /// for the exposed classes (S0/S1), proxies for FORTRESS (S2).
  virtual std::vector<osl::Machine*> direct_attack_surface() = 0;

  /// Machines usable as launch pads against a hidden tier once compromised
  /// (S2 proxies); empty when every tier is directly reachable.
  virtual std::vector<osl::Machine*> launchpad_machines() { return {}; }

  /// Addresses of the hidden server tier reachable only via launch pads
  /// (S2); empty otherwise.
  virtual std::vector<net::Address> hidden_server_addresses() const {
    return {};
  }

  /// Resolve a scheduled fault's (tier, index) to a machine; nullptr when
  /// the tier does not exist or the index is out of range (the fault is
  /// ignored, letting one plan span system classes of different shapes).
  osl::Machine* fault_target(Tier tier, int index);

  /// Total distinct (source, proxy) blacklistings across the detection
  /// tier — the observable evidence that detection fired. 0 for classes
  /// without a detection tier.
  virtual std::uint64_t blacklisted_sources() const { return 0; }

  /// Every machine in the deployment (servers first, then proxies where
  /// present) — the campaign sums per-machine OverloadStats across these
  /// into the trial's overload aggregates.
  std::vector<const osl::Machine*> service_machines() const;

 protected:
  /// Validates `plan` (PlanValidationError) before anything is wired.
  LiveSystem(sim::Simulator& sim, const net::ScenarioPlan& plan,
             std::uint64_t seed, model::SystemKind kind);

  /// One deployed machine and the application it runs. `reset_app` returns
  /// the application to its just-constructed state under the trial plan;
  /// `start_app` begins its protocol once the machine is booted.
  struct Node {
    Tier tier;
    std::unique_ptr<osl::Machine> machine;
    std::unique_ptr<osl::Application> app;
    /// Keys the machine's service-time stream (see begin_trial): servers
    /// count up from 1, proxies from 0x1000.
    std::uint64_t service_salt;
    std::function<void(const net::ScenarioPlan&)> reset_app;
    std::function<void()> start_app;
  };

  /// Wire one machine at `mc` running `app` onto the end of `tier` (servers
  /// are added before proxies). Returns the new machine.
  osl::Machine& add_node(
      Tier tier, osl::MachineConfig mc, std::unique_ptr<osl::Application> app,
      std::function<void(const net::ScenarioPlan&)> reset_app,
      std::function<void()> start_app);

  /// The per-trial initialization, run at the end of every constructor and
  /// by reset(): network, obfuscation scheduler and name server restart
  /// under (plan, seed); every machine is reset, watched and given its
  /// service model; every application is reset.
  void begin_trial(const net::ScenarioPlan& plan, std::uint64_t seed);

  const Node& node(Tier tier, int index) const;
  int tier_size(Tier tier) const;
  std::vector<osl::Machine*> tier_machines(Tier tier);
  /// Machines of `tier` currently under attacker control.
  int compromised_in(Tier tier) const;

  void latch_failure();
  /// Called on every machine compromise; subclasses evaluate their rule.
  virtual bool compromise_rule() const = 0;

  sim::Simulator& sim_;
  const model::SystemKind kind_;
  /// The current trial's unit time-step (failure_step's divisor).
  sim::Time step_duration_ = 0.0;
  crypto::KeyRegistry registry_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<osl::ObfuscationScheduler> scheduler_;
  Directory directory_;
  std::unique_ptr<NameServer> nameserver_;
  std::vector<Node> nodes_;
  std::optional<sim::Time> failure_time_;
};

/// S1: 1-tier primary-backup (Definition 2): plan.n_servers replicas at
/// "s1-server-<i>".
class LiveS1 final : public LiveSystem {
 public:
  LiveS1(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  osl::Machine& server_machine(int i) { return *node(Tier::Server, i).machine; }
  replication::PbReplica& server(int i) {
    return static_cast<replication::PbReplica&>(*node(Tier::Server, i).app);
  }
  int n_servers() const { return tier_size(Tier::Server); }

  std::vector<osl::Machine*> direct_attack_surface() override;

 private:
  bool compromise_rule() const override;
};

/// S0: 1-tier state-machine replication (Definition 1). The plan's server
/// count is a floor: the smallest SMR quorum 3f+1 >= max(4, plan.n_servers)
/// replicas at "s0-replica-<i>" (the default n_servers = 3 gives the
/// paper's 4-node shape).
class LiveS0 final : public LiveSystem {
 public:
  LiveS0(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, DeterministicServiceFactory factory);

  osl::Machine& server_machine(int i) { return *node(Tier::Server, i).machine; }
  replication::SmrReplica& server(int i) {
    return static_cast<replication::SmrReplica&>(*node(Tier::Server, i).app);
  }
  int n_servers() const { return tier_size(Tier::Server); }
  int currently_compromised() const { return compromised_in(Tier::Server); }

  std::vector<osl::Machine*> direct_attack_surface() override;

 private:
  bool compromise_rule() const override;
};

/// S2: the FORTRESS deployment (Definition 3): plan.n_proxies proxies at
/// "s2-proxy-<i>" fronting plan.n_servers servers at "s2-server-<i>".
class LiveS2 final : public LiveSystem {
 public:
  LiveS2(sim::Simulator& sim, const net::ScenarioPlan& plan,
         std::uint64_t seed, ServiceFactory factory);

  osl::Machine& proxy_machine(int i) { return *node(Tier::Proxy, i).machine; }
  osl::Machine& server_machine(int i) { return *node(Tier::Server, i).machine; }
  proxy::ProxyNode& proxy(int i) {
    return static_cast<proxy::ProxyNode&>(*node(Tier::Proxy, i).app);
  }
  replication::PbReplica& server(int i) {
    return static_cast<replication::PbReplica&>(*node(Tier::Server, i).app);
  }
  int n_proxies() const { return tier_size(Tier::Proxy); }
  int n_servers() const { return tier_size(Tier::Server); }
  /// The server addresses, which clients never learn (attack code uses them
  /// only through a compromised proxy's identity).
  const std::vector<net::Address>& server_addresses() const { return server_addrs_; }
  int currently_compromised_proxies() const {
    return compromised_in(Tier::Proxy);
  }

  std::vector<osl::Machine*> direct_attack_surface() override;
  std::vector<osl::Machine*> launchpad_machines() override;
  std::vector<net::Address> hidden_server_addresses() const override;
  std::uint64_t blacklisted_sources() const override;

 private:
  bool compromise_rule() const override;

  std::vector<net::Address> server_addrs_;
};

/// Build the deployment a ScenarioPlan describes for the given system class
/// (a KvService instance per replica).
std::unique_ptr<LiveSystem> make_live_system(sim::Simulator& sim,
                                             model::SystemKind kind,
                                             const net::ScenarioPlan& plan,
                                             std::uint64_t seed);

}  // namespace fortress::core
