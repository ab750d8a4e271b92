// Exact work gate for the scheduler plane: wheel placements and slab slot
// allocations per fired event on one S2 trial of the paper's horizon plan
// (chi = 256, kappa = 0.5, 8 probes per step over 40 steps, uniform
// [0.01, 0.02] delivery delay: one cell of perfbench's attack_horizon grid).
//
// The counts come from sim::SchedulerWork, plain members of the trial's
// Simulator, so they are exact and host-independent. A change that files
// events more often (an extra cascade per fire, say) or that stops periodic
// timers from re-arming in place fails a ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "scenario/campaign.hpp"

namespace fortress::scenario {
namespace {

// Measured on this trial: 9194 fires, 16,965 placements (1.85 per fire)
// and 4505 slot allocations (0.49 per fire). Before periodic timers
// re-armed in place and lone coarse-bucket entries ran directly, the same
// trial took 18,973 placements (2.06) and 9217 allocations (1.00). Each
// ceiling leaves 3-6% headroom above today's figure and fails the old one.
constexpr double kMaxPlacementsPerFire = 1.90;
constexpr double kMaxSlotAllocsPerFire = 0.52;

net::ScenarioPlan horizon_plan() {
  net::ScenarioPlan plan;
  plan.name = "horizon_chi256_k050";
  plan.keyspace = 256;
  plan.attack.probes_per_step = 8.0;
  plan.attack.indirect_fraction = 0.5;
  plan.horizon_steps = 40;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

TEST(SchedulerWorkBudgetTest, HorizonS2PlacementsAndAllocationsPerFire) {
  TrialArena arena(sim::SchedulerKind::Wheel);
  const TrialOutcome outcome =
      arena.run(model::SystemKind::S2, horizon_plan(), trial_seed(1, 0, 0));
  const sim::SchedulerWork& work = arena.scheduler_work();
  ASSERT_GT(work.fires, 0u);
  EXPECT_EQ(work.fires, outcome.events_executed);

  const double fires = static_cast<double>(work.fires);
  const double placements = static_cast<double>(work.placements) / fires;
  const double allocs = static_cast<double>(work.slot_allocs) / fires;
  RecordProperty("fires", std::to_string(work.fires));
  RecordProperty("placements", std::to_string(work.placements));
  RecordProperty("cascade_placements", std::to_string(work.cascade_placements));
  RecordProperty("slot_allocs", std::to_string(work.slot_allocs));
  RecordProperty("rearms", std::to_string(work.rearms));
  EXPECT_LE(placements, kMaxPlacementsPerFire)
      << work.placements << " placements for " << work.fires << " fires";
  EXPECT_LE(allocs, kMaxSlotAllocsPerFire)
      << work.slot_allocs << " slot allocations for " << work.fires
      << " fires";
}

}  // namespace
}  // namespace fortress::scenario
