// campaign.hpp — the scenario campaign runner: live-system experiments at
// Monte-Carlo scale.
//
// A campaign evaluates a grid of cells, each cell being (system class x
// ScenarioPlan), with either a fixed budget of `trials_per_cell` live
// trials per cell or — in adaptive mode (AdaptiveConfig) — rounds of
// trials that stop per cell once its lifetime CI is narrow enough. Every
// trial is a fully isolated experiment, seeded deterministically from
// (base_seed, cell index, trial index), so trials parallelize
// embarrassingly over exec::ThreadPool; isolation comes either from a
// fresh Simulator+Network+LiveSystem per trial or (the default) from a
// per-worker pooled stack reset between trials (TrialArena) — both run
// through the same TrialArena driver and per-trial initialization.
//
// Determinism contract: per-trial outcomes depend only on the trial's
// derived seed, results land in a slot indexed by the round's task index,
// and the reduction (including adaptive close/continue decisions) runs
// serially in index order after the pool drains each round. Campaign
// output is therefore BIT-identical for any thread count and for either
// isolation strategy (tested), which makes campaign statistics usable as
// regression oracles.
//
// The runner drives every system class through the class-generic topology
// hooks on core::LiveSystem (direct_attack_surface / launchpad_machines /
// hidden_server_addresses / fault_target), so one ScenarioPlan can be
// swept across S0, S1 and S2 unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/derand_attacker.hpp"
#include "common/stats.hpp"
#include "core/population.hpp"
#include "model/params.hpp"
#include "net/scenario.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {
class LiveSystem;
}  // namespace fortress::core

namespace fortress::scenario {

/// Traffic-plane aggregates of one trial (all zero when the plan has no
/// TrafficSpec): client-side request accounting, per-deployment sums of the
/// machines' OverloadStats, and the completed-request latency histogram.
/// merge() is the exact cell reduction — every field is a sum, a max, or an
/// elementwise histogram add, so cell aggregates are bit-identical for any
/// trial-batching (the campaign's thread-count invariance extends to these).
struct TrafficStats {
  // --- client side ---------------------------------------------------------
  std::uint64_t offered = 0;    ///< requests submitted (excluding retries)
  std::uint64_t completed = 0;  ///< accepted responses
  std::uint64_t timed_out = 0;  ///< deadline failures
  std::uint64_t gave_up = 0;    ///< retry-budget failures (Overloaded)
  std::uint64_t retries = 0;    ///< re-sends across all requests
  std::uint64_t rejected_responses = 0;
  // --- service plane (summed over the deployment's machines) ---------------
  std::uint64_t enqueued = 0;
  std::uint64_t served = 0;
  std::uint64_t shed = 0;
  std::uint64_t backpressured = 0;
  std::uint64_t degraded = 0;
  std::uint64_t dropped_on_reboot = 0;
  std::uint64_t max_queue_depth = 0;  ///< max over machines (merge: max)
  /// Completed requests per unit time over the trial horizon; summed by
  /// merge() — divide by the cell's trial count for the mean.
  double goodput = 0.0;
  /// Submit-to-completion latency of every completed request.
  LatencyHistogram latency;

  void merge(const TrafficStats& o);
};

/// Outcome of one live trial.
struct TrialOutcome {
  bool compromised = false;
  /// Whole unit steps survived: the failure step, or the plan's horizon for
  /// trials that were censored (never compromised).
  std::uint64_t lifetime_steps = 0;
  attack::AttackerStats attacker;
  std::uint64_t events_executed = 0;
  /// Distinct (source, proxy) blacklistings at trial end — evidence the
  /// detection tier fired (0 for classes without one).
  std::uint64_t blacklisted_sources = 0;
  TrafficStats traffic;
  /// Compact population-plane aggregates (zero when the plan has no
  /// PopulationSpec).
  core::PopulationStats population;
};

/// Run one live experiment: build the deployment `plan` describes for
/// `system`, schedule the plan's faults, wire the plan's attacker to the
/// system's attack surface, and simulate until compromise or the plan
/// horizon. A one-shot TrialArena (below). Deterministic in (system, plan,
/// seed) — and bit-identical for either scheduler kind (the wheel/heap
/// differential tests pin this). Throws net::PlanValidationError for an
/// invalid plan: every world build and reset validates it in full.
TrialOutcome run_trial(model::SystemKind system, const net::ScenarioPlan& plan,
                       std::uint64_t seed);
TrialOutcome run_trial(model::SystemKind system, const net::ScenarioPlan& plan,
                       std::uint64_t seed, sim::SchedulerKind scheduler);

/// One campaign cell: a system class under a scenario.
struct CampaignCell {
  model::SystemKind system = model::SystemKind::S2;
  net::ScenarioPlan plan;
};

/// One adaptive stopping criterion: which observable to watch and how
/// narrow its confidence interval must get. A cell closes once EVERY
/// configured rule is satisfied; a rule is satisfied when
///
///   half_width(CI) <= max(target_rel * value, abs_floor)
///
/// The absolute floor is not optional polish — it is the rare-event fix: a
/// relative-only target is unsatisfiable when the point estimate sits at or
/// near zero (an instant-compromise cell's mean lifetime, a zero-success
/// compromise count), so such cells used to burn the whole per-cell budget.
/// With a floor, "the interval is narrower than a quantity I don't care to
/// resolve" closes the cell.
struct StoppingRule {
  enum class Metric : std::uint8_t {
    /// Mean lifetime in steps; CI = normal_ci over the cell's lifetime
    /// accumulator (needs >= 2 trials). The legacy (PR-3) criterion.
    MeanLifetime,
    /// P(compromise before horizon); CI = wilson_ci on the binomial
    /// (compromised, trials) count (needs >= 2 trials). The Wilson interval
    /// plus the mandatory abs_floor is the rare-event guard: a cell with
    /// zero (or all) successes still closes once the interval's width —
    /// which shrinks like z^2/n around 0 — drops under the floor.
    CompromiseProbability,
    /// A quantile of the completed-request latency histogram (traffic
    /// plane); CI = LatencyHistogram::quantile_ci at `quantile`. Vacuously
    /// satisfied while the cell has no latency samples (a plan without a
    /// traffic plane would otherwise stall forever).
    LatencyQuantile,
  };
  Metric metric = Metric::MeanLifetime;
  /// LatencyQuantile only: which quantile (in (0,1), e.g. 0.99 for p99).
  double quantile = 0.99;
  /// Relative half-width target (fraction of the metric's point estimate).
  double target_rel = 0.10;
  /// Absolute half-width floor, in the metric's own unit (steps /
  /// probability / latency time units). Must be > 0 for
  /// CompromiseProbability (the rare-event guard has no relative leg to
  /// stand on at p = 0).
  double abs_floor = 0.0;
};

/// Adaptive (sequential-sampling) mode: instead of a fixed trial budget per
/// cell, cells run in deterministic ROUNDS of `round_trials` each; after
/// every round the serial reducer closes any cell whose stopping rules are
/// all satisfied, and the next round's trials go only to the still-open
/// cells — low-variance cells stop early and the budget flows to the cells
/// whose estimates are still uncertain (the paper's Fig. 1 curves are
/// exactly such per-cell means).
///
/// Determinism contract: a cell's trial indices grow contiguously across
/// rounds (trial t of cell c always uses trial_seed(base, c, t)), and the
/// close/continue decision — and the next round's trial allocation, work-
/// stealing included — is made by the in-order reducer between rounds, so
/// the executed (cell, trial) seed set, and therefore every aggregate, is
/// bit-identical for any thread count.
struct AdaptiveConfig {
  bool enabled = false;
  /// Per-cell trials per round (with work_stealing, the per-cell SHARE of
  /// the round's capacity while every cell is open).
  std::uint64_t round_trials = 16;
  /// The default mean-lifetime rule's relative target (used when `rules`
  /// is empty): close once half_width(CI) <= max(target_rel_ci * mean,
  /// abs_ci_floor).
  double target_rel_ci = 0.10;
  /// The default rule's absolute half-width floor, in steps. Lifetimes are
  /// measured in whole steps, so resolving the mean below half a step is
  /// meaningless — and demanding it is exactly the zero-mean stall bug
  /// (instant-compromise cells could never satisfy a relative-only target).
  double abs_ci_floor = 0.5;
  /// Hard per-cell cap: a cell that never reaches its targets closes here.
  std::uint64_t max_trials_per_cell = 1024;
  /// Multi-metric stopping: when non-empty these REPLACE the default
  /// mean-lifetime rule, and a cell stays open until every rule holds.
  std::vector<StoppingRule> rules;
  /// Work-stealing rounds: every round re-issues the FULL grid capacity
  /// (round_trials x number of cells) across the still-open cells, split
  /// evenly in cell order (capped by each cell's remaining budget, spill
  /// re-flowing to the rest) — closed cells donate their share instead of
  /// shrinking the round, so workers never idle as the grid converges.
  /// While every cell is open the allocation equals the legacy schedule;
  /// off (the default) preserves the PR-3 allocation bit-exactly. Stealing
  /// pools capacity WITHIN one run_campaign call: a sharded campaign steals
  /// within each shard, so shard-vs-single-process bit-identity holds only
  /// with stealing off (see scenario/shard.hpp).
  bool work_stealing = false;

  /// The rule set in force: `rules`, or the single default mean-lifetime
  /// rule synthesized from target_rel_ci / abs_ci_floor.
  std::vector<StoppingRule> effective_rules() const;
};

struct CampaignConfig {
  /// Fixed mode (adaptive.enabled == false): exactly this many trials per
  /// cell. Ignored in adaptive mode.
  std::uint64_t trials_per_cell = 32;
  /// Worker cap handed to exec::ThreadPool (0 = all hardware threads).
  /// Any value produces bit-identical results.
  unsigned threads = 0;
  std::uint64_t base_seed = 1;
  /// Confidence level for the per-cell lifetime interval (also the CI the
  /// adaptive stopping rule tests).
  double ci_level = 0.95;
  /// Event scheduler for every trial simulator (pooled and fresh).
  /// Defaults to the process-wide choice (FORTRESS_SIM_SCHEDULER); results
  /// are bit-identical either way — this knob exists for the differential
  /// lane and A/B benches.
  sim::SchedulerKind scheduler = sim::default_scheduler_kind();
  AdaptiveConfig adaptive;
  /// Run trials on pooled per-worker stacks (TrialArena): the Simulator
  /// event slab, Network buffers and LiveSystem allocations are reused via
  /// reset() instead of reconstructed per trial. Outcomes are identical
  /// either way (tested); false forces the fresh-stack path (the bench
  /// compares both).
  bool reuse_trial_stacks = true;
};

/// Aggregated statistics for one cell, reduced in trial-index order.
struct CellStats {
  model::SystemKind system = model::SystemKind::S2;
  std::string plan_name;
  std::uint64_t trials = 0;
  /// Rounds this cell stayed open (1 in fixed mode).
  std::uint64_t rounds = 0;
  std::uint64_t compromised = 0;
  std::uint64_t censored = 0;
  /// Lifetime in whole unit steps; censored trials contribute the horizon,
  /// so with censoring the mean is a lower bound on the true EL.
  RunningStats lifetime;
  /// Normal-approximation CI for the mean lifetime (undefined width when
  /// trials < 2).
  ConfidenceInterval lifetime_ci;
  attack::AttackerStats attacker;  ///< summed over the cell's trials
  std::uint64_t events_executed = 0;
  std::uint64_t blacklisted_sources = 0;  ///< summed over the cell's trials
  TrafficStats traffic;                   ///< merged over the cell's trials
  core::PopulationStats population;       ///< merged over the cell's trials

  double mean_lifetime() const {
    return lifetime.count() > 0 ? lifetime.mean() : 0.0;
  }
  /// Mean per-trial goodput (TrafficStats::goodput is summed by merge).
  double mean_goodput() const {
    return trials > 0 ? traffic.goodput / static_cast<double>(trials) : 0.0;
  }
};

struct CampaignResult {
  std::vector<CellStats> cells;  ///< one per input cell, same order
  std::uint64_t total_trials = 0;
  std::uint64_t total_events = 0;
};

/// Run every cell's trials fanned out over the shared thread pool.
CampaignResult run_campaign(const std::vector<CampaignCell>& cells,
                            const CampaignConfig& config);

/// The shard building block: run_campaign over `cells`, but cell i derives
/// its trial seeds as GLOBAL cell index cell_indices[i] — so a process that
/// owns a subset of a larger grid executes exactly the (cell, trial) seed
/// set the full single-process run would have executed for those cells
/// (stopping decisions are per-cell, so per-cell aggregates match bit for
/// bit; see scenario/shard.hpp for the caveat on work_stealing, whose
/// donation pool is per-call). run_campaign(cells, cfg) ==
/// run_campaign_subset(cells, cfg, {0, 1, ..., cells.size()-1}).
/// Precondition: cell_indices.size() == cells.size().
CampaignResult run_campaign_subset(
    const std::vector<CampaignCell>& cells, const CampaignConfig& config,
    const std::vector<std::uint64_t>& cell_indices);

/// Evaluate one stopping rule against a cell's current aggregates at the
/// given confidence level (exposed for tests and the shard driver's
/// reporting). Rules needing more data than the cell has yet (< 2 trials)
/// report false; a LatencyQuantile rule with no samples reports true.
bool stopping_rule_satisfied(const CellStats& stats, const StoppingRule& rule,
                             double ci_level);

/// Grid helper: the cross product (systems x plans), systems-major.
std::vector<CampaignCell> cross(const std::vector<model::SystemKind>& systems,
                                const std::vector<net::ScenarioPlan>& plans);

/// The seed a campaign derives for trial `trial` of cell `cell` (exposed so
/// tests can reproduce an individual campaign trial with run_trial).
std::uint64_t trial_seed(std::uint64_t base_seed, std::uint64_t cell,
                         std::uint64_t trial);

/// A reusable live-trial stack: one Simulator + (lazily built) LiveSystem
/// that successive trials reset instead of reconstruct. Reuse keeps the
/// simulator's event slab at its high-water mark and the deployment's
/// machines/replicas/proxies/network allocated; only per-trial state is
/// re-initialized, by the same functions a fresh build ends in. When the
/// requested cell deploys another shape (system class or tier sizes, as
/// LiveSystem::deploys decides), the stack is rebuilt — campaign rounds
/// iterate cells in order, so consecutive trials usually hit. run_trial is
/// a one-shot arena, so the fresh and pooled paths share this one driver.
///
/// run() returns TrialOutcomes bit-identical to the free run_trial() for
/// every (system, plan, seed) — pooling is a pure setup-cost optimization
/// (tested). Not thread-safe; campaigns key one arena per pool worker slot
/// (exec::ThreadPool::current_slot).
class TrialArena {
 public:
  TrialArena();  // out of line: members only forward-declare LiveSystem
  explicit TrialArena(sim::SchedulerKind scheduler);
  ~TrialArena();
  TrialArena(const TrialArena&) = delete;
  TrialArena& operator=(const TrialArena&) = delete;

  TrialOutcome run(model::SystemKind system, const net::ScenarioPlan& plan,
                   std::uint64_t seed);

 private:
  /// Schedule the plan's faults, bring up the population, traffic and
  /// attacker planes, simulate to compromise or horizon and collect the
  /// outcome. live_ must be freshly built or freshly reset for (plan, seed).
  TrialOutcome drive(const net::ScenarioPlan& plan, std::uint64_t seed);

  sim::Simulator sim_;
  std::unique_ptr<core::LiveSystem> live_;

  // Planes pooled alongside live_, destroyed before it (both point at its
  // machines/network) by declaration order. The population's reset()
  // handles any shape change; the attacker is rebuilt when a trial needs
  // other wiring (direct channels on or off, another sybil count).
  std::unique_ptr<core::ClientPopulation> population_;
  std::unique_ptr<attack::DerandAttacker> attacker_;
  bool attacker_direct_ = false;
  unsigned attacker_sybils_ = 0;
};

}  // namespace fortress::scenario
