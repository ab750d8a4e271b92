// scenario.hpp — declarative scenario plans for live-system experiments.
//
// A ScenarioPlan is a self-contained, copyable description of one live
// experiment's environment: the network's latency distribution and loss
// behaviour, scheduled partitions, scheduled process crashes, and the
// attacker's probe schedule, plus the deployment knobs (keyspace,
// obfuscation policy, horizon) the upper layers need to build a LiveSystem.
//
// Consumers by layer:
//  * net::NetworkConfig::from_plan maps the network-behaviour fields
//    (latency, drop, duplication, partitions) onto the network's config;
//  * the core::LiveS0/S1/S2 deployments (built by core::make_live_system,
//    re-initialized by LiveSystem::reset) read the deployment fields;
//  * scenario::Campaign reads the fault and attack schedules and fans
//    (system class x plan x seed) grids over a thread pool.
//
// Plans are plain value types on purpose: a campaign copies one plan per
// parallel task, so nothing here may hold references into a live system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace fortress::net {

/// Network address of a host (the sole definition; network.hpp re-uses it).
using Address = std::string;

/// Thrown by the ScenarioPlan::validate() family with a precise description
/// of the offending field ("ScenarioPlan 'x': faults[2].at must be finite
/// and >= 0, got -1"). Derives from ContractViolation so callers that treat
/// a bad plan as a contract breach keep working; the plan codec catches it
/// at load so malformed fixture files fail at the door instead of deep
/// inside the simulator.
class PlanValidationError : public ContractViolation {
 public:
  explicit PlanValidationError(const std::string& what)
      : ContractViolation(what) {}
};

/// Latency distribution, sampled per delivery. A value type (no virtual
/// dispatch) so plans can be copied freely across campaign workers.
struct LatencySpec {
  enum class Kind {
    Fixed,        ///< always `a`
    Uniform,      ///< uniform in [a, b]
    Exponential,  ///< a + Exp(mean = b): a models the propagation floor
  };

  Kind kind = Kind::Uniform;
  double a = 0.1;
  double b = 0.5;

  static LatencySpec fixed(double latency) {
    return {Kind::Fixed, latency, 0.0};
  }
  static LatencySpec uniform(double lo, double hi) {
    return {Kind::Uniform, lo, hi};
  }
  static LatencySpec exponential(double floor, double mean_extra) {
    return {Kind::Exponential, floor, mean_extra};
  }

  sim::Time sample(Rng& rng) const;
  /// Throws PlanValidationError naming `ctx` (e.g. "latency") on NaN /
  /// negative / inverted parameters.
  void validate(const std::string& ctx = "LatencySpec") const;
};

/// One scheduled partition: during [start, end) the hosts in `island` are
/// cut off from every host outside it (messages in either direction are
/// lost). Overlapping windows compose: a link is blocked if ANY active
/// window separates its endpoints.
struct PartitionWindow {
  sim::Time start = 0.0;
  sim::Time end = 0.0;
  std::vector<Address> island;

  bool active_at(sim::Time t) const { return t >= start && t < end; }
  bool contains(const Address& addr) const;
};

/// One scheduled fault. Addressed by deployment tier + index because
/// concrete addresses are assigned by the LiveSystem. Boundary semantics:
/// only faults strictly BEFORE the campaign horizon (`at < step_duration *
/// horizon_steps`, in simulation-time units) are scheduled — a fault at or
/// past the horizon could never influence the trial's outcome (lifetime is
/// capped at the horizon), so the campaign drops it instead of doing dead
/// work.
struct FaultEvent {
  enum class Target { Server, Proxy };
  /// What happens to the target when the event fires:
  ///  * Recover (the default, and the only behaviour older plans had): a
  ///    crash + immediate restart with the machine's current key (proactive
  ///    recovery). If the target is DOWN — taken out by an earlier Crash
  ///    event — Recover boots it back up with the key it held when it went
  ///    down, which is what makes a crash/recovery schedule expressible.
  ///  * Crash: the target goes down and STAYS down (skipped by the
  ///    obfuscation scheduler) until a later Recover event revives it.
  enum class Kind { Recover, Crash };
  Target target = Target::Server;
  int index = 0;
  sim::Time at = 0.0;
  Kind kind = Kind::Recover;
};

/// The de-randomization attacker's probe schedule (§4.2 rates).
struct AttackSchedule {
  bool enabled = true;
  /// When false the attacker is wired to the indirect channel only — no
  /// direct probes against the attack surface. Models the adversary a
  /// detection study assumes: every packet it lands must traverse the
  /// proxy tier, so the proxies see (and can blacklist) all of its traffic.
  bool direct_enabled = true;
  /// ω: probes per direct channel per unit step. The implied model strength
  /// is α = ω / keyspace.
  double probes_per_step = 16.0;
  /// κ: the indirect channel runs at κ·ω crafted requests per step.
  double indirect_fraction = 0.5;
  /// Attack launch time (gives proxies time to dial the server tier).
  sim::Time start_time = 5.0;
  /// Source identities presented (Sybil evasion of per-source detection).
  unsigned sybil_identities = 1;
};

/// What a machine does with an inbound message when its bounded service
/// queue is full (see osl::Machine and the ServiceModel below).
enum class OverloadPolicy : std::uint8_t {
  /// Arrivals to a full queue are dropped (counted as shed).
  DropTail,
  /// The NEWEST queued entry is evicted to admit the arrival — oldest work
  /// keeps its place, so in-progress retry chains converge.
  ShedNewest,
  /// Arrivals to a full queue are parked and re-offered after
  /// `pushback_delay` (connection-level pushback): nothing is lost, but the
  /// sender's effective latency inflates without bound while overload lasts.
  Backpressure,
  /// Above `degrade_watermark` queued entries, dispatches are marked
  /// degraded: the application skips signature verification for them
  /// (proxy::ProxyNode honours the flag) and the machine skips
  /// `verify_cost` — goodput holds at the price of verification coverage.
  /// A full queue still drops the arrival, as DropTail.
  DegradeUnsigned,
};

/// Per-machine service-time model: when enabled, every protocol message a
/// machine's application would handle is run through a bounded single-server
/// queue, its service time drawn deterministically from the trial RNG by
/// message class. Disabled (the default) is the exact pre-overload-plane
/// synchronous dispatch — plans without a service model pay one branch.
struct ServiceModel {
  bool enabled = false;
  /// Service time per MsgType::Request dispatch.
  LatencySpec request_service = LatencySpec::fixed(0.1);
  /// Service time per Response/ProxyResponse dispatch (proxies validating
  /// server replies).
  LatencySpec response_service = LatencySpec::fixed(0.05);
  /// Service time for everything else, when `queue_control` is set.
  LatencySpec other_service = LatencySpec::fixed(0.01);
  /// Extra service time added to every verifying dispatch — the CPU the
  /// DegradeUnsigned policy saves when a dispatch is marked degraded.
  double verify_cost = 0.0;
  /// Maximum WAITING entries (excludes the one in service).
  std::uint32_t queue_capacity = 64;
  OverloadPolicy policy = OverloadPolicy::DropTail;
  /// DegradeUnsigned: depth (waiting + in service) at admission at or above
  /// this marks the dispatch degraded.
  std::uint32_t degrade_watermark = 32;
  /// Backpressure: delay before a parked arrival is re-offered.
  sim::Time pushback_delay = 0.5;
  /// When false (default) control-plane traffic — heartbeats, state
  /// updates, view changes: anything that is not a Request/Response — is
  /// dispatched synchronously, modelling a prioritized control plane; when
  /// true it queues under `other_service` like everything else.
  bool queue_control = false;

  void validate(const std::string& ctx = "ServiceModel") const;
};

/// One piece of a piecewise-constant arrival-rate schedule: from `at`
/// onwards, `rate` requests per simulation-time unit (until the next phase).
/// A zero-rate phase pauses arrivals until the next phase.
struct RatePhase {
  sim::Time at = 0.0;
  double rate = 1.0;
};

/// Open-loop client traffic for a trial: `clients` load-generating clients
/// submit requests at the scheduled arrival rate (Poisson or evenly spaced
/// inter-arrivals), independent of completions — the open loop is what makes
/// overload reachable. Client retry behaviour (capped exponential backoff +
/// jitter, per-request budgets) is part of the spec so retry storms are a
/// modelled input.
struct TrafficSpec {
  /// Piecewise-constant arrival-rate schedule; empty disables traffic.
  /// Phases must be sorted by `at` ascending.
  std::vector<RatePhase> schedule;
  /// Load-generating client population (round-robin submission).
  int clients = 0;
  /// Fraction of requests that are writes (PUT); the rest are reads (GET).
  double write_fraction = 0.5;
  /// Distinct keys the generated requests touch.
  unsigned distinct_keys = 16;
  /// Poisson (exponential inter-arrival) vs evenly-spaced arrivals.
  bool poisson = true;

  // --- client robustness knobs (core::ClientConfig per generated client) ---
  sim::Time retry_base = 2.0;      ///< first retry delay
  double retry_multiplier = 2.0;   ///< exponential backoff factor
  sim::Time retry_cap = 16.0;      ///< backoff ceiling (0 = uncapped)
  double retry_jitter = 0.1;       ///< ± fraction of deterministic jitter
  std::uint32_t retry_budget = 6;  ///< retries per request (0 = unlimited)
  sim::Time request_deadline = 50.0;  ///< per-request deadline (0 = never)

  bool enabled() const { return clients > 0 && !schedule.empty(); }
  void validate(const std::string& ctx = "TrafficSpec") const;
};

/// A compact client population for internet-scale trials: `clients` clients
/// live as O(bytes) slots in a flat core::ClientPopulation SoA table driven
/// by ONE timer per cohort (not per client) — 10^5-10^6 clients per trial
/// instead of the tens that per-client core::Client stacks allow. Retry and
/// acceptance semantics reuse TrafficSpec's vocabulary; the differences
/// (tick-quantized retries/deadlines, batched per-tier delivery, first-valid
/// SMR acceptance) are documented on core::ClientPopulation. Disabled by
/// default (`clients == 0`): plans without a population build nothing and
/// schedule nothing.
struct PopulationSpec {
  /// Total population size; 0 disables the plane entirely.
  std::uint64_t clients = 0;
  /// Clients per cohort: one wheel timer and one RNG substream per cohort.
  std::uint32_t cohort_size = 1024;
  /// Open-loop arrival rate per CLIENT per unit time (the cohort kernel
  /// draws Poisson arrivals at rate clients x this).
  double request_rate = 0.01;
  /// Fraction of requests that are writes (PUT); the rest are reads (GET).
  double write_fraction = 0.5;
  /// Distinct keys the generated requests touch.
  unsigned distinct_keys = 16;
  /// Cohort kernel cadence: arrivals, retries and deadlines are processed
  /// at this granularity (quantization is part of the model).
  sim::Time tick_interval = 1.0;

  // --- retry/backoff state packed per client slot (TrafficSpec semantics,
  // minus jitter — cohort staggering decorrelates retry storms instead) ---
  sim::Time retry_base = 2.0;         ///< first retry delay
  double retry_multiplier = 2.0;      ///< exponential backoff factor
  sim::Time retry_cap = 16.0;         ///< backoff ceiling (0 = uncapped)
  std::uint32_t retry_budget = 6;     ///< retries per request (0 = unlimited)
  sim::Time request_deadline = 50.0;  ///< per-request deadline (0 = never)

  bool enabled() const { return clients > 0; }
  void validate(const std::string& ctx = "PopulationSpec") const;
};

/// A complete scenario: network behaviour + schedules + deployment knobs.
struct ScenarioPlan {
  std::string name = "baseline";

  // --- network behaviour (consumed by net::Network) ---
  LatencySpec latency = LatencySpec::uniform(0.1, 0.5);
  /// Probability an individual datagram is dropped (connections stay
  /// reliable outside partitions).
  double drop_probability = 0.0;
  /// Probability a datagram is delivered twice (independent latencies).
  double duplicate_probability = 0.0;
  std::vector<PartitionWindow> partitions;

  // --- schedules (consumed by scenario::Campaign) ---
  std::vector<FaultEvent> faults;
  AttackSchedule attack;

  // --- deployment knobs (consumed by the core::LiveSystem deployments) ---
  std::uint64_t keyspace = 1ull << 10;  ///< χ
  sim::Time step_duration = 100.0;      ///< the unit time-step
  bool rerandomize = true;  ///< fresh keys per step (PO) vs recovery (SO)
  /// Server-tier size. S1/S2 deploy exactly this many; S0 (SMR) deploys
  /// the smallest valid 3f+1 quorum >= max(4, n_servers).
  int n_servers = 3;
  int n_proxies = 3;  ///< S2 only
  /// Proxy-tier detection (S2): blacklist sources whose suspicion score
  /// reaches `detection_threshold` within `detection_window` time units
  /// (0 threshold disables detection).
  bool proxy_blacklist = false;
  std::uint32_t detection_threshold = 0;
  sim::Time detection_window = 500.0;
  /// Campaign horizon: trials that survive this many whole unit steps are
  /// censored.
  std::uint64_t horizon_steps = 100;
  /// Per-machine service model (consumed by osl::Machine via the
  /// LiveSystem); disabled by default — the overload plane is
  /// pay-for-what-you-use.
  ServiceModel service;
  /// Open-loop client traffic (consumed by scenario::TrafficGenerator in
  /// the campaign trial driver); disabled by default.
  TrafficSpec traffic;
  /// Compact large-scale client population (consumed by
  /// core::ClientPopulation in the campaign trial driver); disabled by
  /// default. Orthogonal to `traffic`: a plan may run both (the handful of
  /// heavy load generators AND the million-host background population).
  PopulationSpec population;

  /// The model-side attacker strength this plan implies: α = ω/χ (the §4
  /// coupling used by the live-vs-analytic cross-checks).
  double implied_alpha() const {
    return attack.probes_per_step / static_cast<double>(keyspace);
  }

  /// Full-plan validation with precise error strings: NaN / negative rates
  /// and probabilities, inverted partition and rate-phase windows, empty
  /// partition islands, zero-size cohorts, and non-finite times are all
  /// rejected with the offending field named. Fault-time policy is explicit:
  /// `faults[i].at` may lie at or past the horizon (step_duration *
  /// horizon_steps) — the campaign DROPS such events instead of scheduling
  /// dead work (see FaultEvent) — but it must be finite and >= 0.
  ///
  /// Called by the plan codec on every load and by NetworkConfig::from_plan
  /// on every live-world build and reset (every build type); campaigns
  /// also validate every cell plan up front.
  void validate() const;
};

}  // namespace fortress::net
