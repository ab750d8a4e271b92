#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <array>
#include <vector>

#include "common/check.hpp"

namespace fortress::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(SimulatorTest, TiesFireInInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SimulatorTest, ScheduleAfterUsesCurrentTime) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule_at(10.0, [&] {
    sim.schedule_after(5.0, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SimulatorTest, SchedulingInPastViolatesContract) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), ContractViolation);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), ContractViolation);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel reports failure
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  std::uint64_t n = sim.run_until(2.5);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  // Events at exactly the boundary execute.
  n = sim.run_until(3.0);
  EXPECT_EQ(n, 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(SimulatorTest, RunUntilAdvancesTimeWhenIdle) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RequestStopBreaksRun) {
  Simulator sim;
  int count = 0;
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    sim.schedule_at(t, [&] {
      ++count;
      if (count == 3) sim.request_stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  // Remaining events still pending; a fresh run completes them.
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, HandlersCanScheduleRecursively) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 50) sim.schedule_after(1.0, recurse);
  };
  sim.schedule_after(1.0, recurse);
  sim.run();
  EXPECT_EQ(depth, 50);
  EXPECT_DOUBLE_EQ(sim.now(), 50.0);
}

TEST(SimulatorTest, CancelledIdNotConfusedWithSlotReuse) {
  // The slab recycles event slots; a stale EventId whose slot was reused
  // must neither cancel the new occupant nor report success (generation
  // check, ABA guard).
  Simulator sim;
  bool first_ran = false;
  bool second_ran = false;
  EventId first = sim.schedule_at(1.0, [&] { first_ran = true; });
  EXPECT_TRUE(sim.cancel(first));
  // This reuses the freed slot.
  EventId second = sim.schedule_at(2.0, [&] { second_ran = true; });
  EXPECT_FALSE(sim.cancel(first));  // stale id: must not touch the new event
  sim.run();
  EXPECT_FALSE(first_ran);
  EXPECT_TRUE(second_ran);
  EXPECT_FALSE(sim.cancel(second));
}

TEST(SimulatorTest, CancelFromWithinHandler) {
  Simulator sim;
  bool victim_ran = false;
  EventId victim = sim.schedule_at(2.0, [&] { victim_ran = true; });
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  sim.run();
  EXPECT_FALSE(victim_ran);
}

TEST(SimulatorTest, CancelledEventsNeverFireAcrossRunModes) {
  // Cancelled events must not fire whether drained by run(), run_until() or
  // step(), including tombstones popped long after cancellation.
  Simulator sim;
  int fired = 0;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sim.schedule_at(1.0 + i, [&] { ++fired; }));
  }
  for (int i = 0; i < 20; i += 2) EXPECT_TRUE(sim.cancel(ids[static_cast<std::size_t>(i)]));
  EXPECT_EQ(sim.pending(), 10u);
  sim.run_until(6.0);   // fires 1.0..6.0 odd-indexed events
  while (sim.step()) {  // drain the rest one by one
  }
  EXPECT_EQ(fired, 10);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, PendingExcludesCancelledTombstones) {
  Simulator sim;
  EventId a = sim.schedule_at(1.0, [] {});
  sim.schedule_at(2.0, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.idle());
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, LargeCaptureFallsBackToHeapCorrectly) {
  // Captures larger than EventFn's inline buffer take the heap path; the
  // callable must still move, fire once, and destruct exactly once.
  Simulator sim;
  std::vector<int> big(1000, 7);
  std::array<char, 200> pad{};  // bigger than any inline buffer
  long sum = 0;
  sim.schedule_at(1.0, [big, pad, &sum] {
    sum += big[999] + pad[0];
  });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sum, 7);
}

TEST(SimulatorTest, HighChurnReusesSlotsDeterministically) {
  // Interleaved schedule/cancel/run churn across many slots: order and
  // counts must stay exact while the free list recycles aggressively.
  Simulator sim;
  std::vector<double> fired;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    double base = sim.now();
    for (int i = 0; i < 8; ++i) {
      double at = base + 1.0 + i;
      ids.push_back(sim.schedule_at(at, [&fired, &sim] { fired.push_back(sim.now()); }));
    }
    for (int i = 1; i < 8; i += 2) sim.cancel(ids[static_cast<std::size_t>(i)]);
    sim.run_until(base + 10.0);
  }
  EXPECT_EQ(fired.size(), 50u * 4u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_TRUE(sim.idle());
}

TEST(TimerWheelTest, CancelAfterCascade) {
  // Two timers share a level-1 bucket; when the cursor reaches that bucket
  // both cascade into level-0 slots. The earlier one then cancels the later
  // one AFTER the cascade relocated it — the unlink must find it in its
  // post-cascade bucket.
  Simulator sim(SchedulerKind::Wheel);
  bool victim_ran = false;
  // Ticks 2050 and 2049 (kTicksPerUnit = 1024): same level-1 slot, distinct
  // level-0 slots after the cascade at tick 2048.
  EventId victim = sim.schedule_at(2050.0 / 1024.0, [&] { victim_ran = true; });
  sim.schedule_at(2049.0 / 1024.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(sim.idle());
}

TEST(TimerWheelTest, CancelWhileStagedInDueQueue) {
  // Two timers on the SAME tick share a level-0 bucket and get staged into
  // the due queue together; cancelling the second from the first must
  // tombstone the staged entry, not unlink a bucket.
  Simulator sim(SchedulerKind::Wheel);
  bool victim_ran = false;
  EventId victim = 0;
  sim.schedule_at(2049.0 / 1024.0, [&] { EXPECT_TRUE(sim.cancel(victim)); });
  victim = sim.schedule_at(2049.0 / 1024.0, [&] { victim_ran = true; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(sim.idle());
}

TEST(TimerWheelTest, ScheduleAtExactWheelHorizon) {
  // The wheel spans 64^8 ticks; a timer at exactly now + horizon has its
  // top level bit beyond the last level and must take the overflow path —
  // and still fire, in order, after a timer just inside the horizon.
  Simulator sim(SchedulerKind::Wheel);
  const double horizon_units = std::ldexp(1.0, 38);  // 2^48 ticks / 2^10
  std::vector<int> order;
  sim.schedule_at(horizon_units, [&] { order.push_back(2); });
  sim.schedule_at(horizon_units / 2.0, [&] { order.push_back(1); });
  EventId cancelled = sim.schedule_at(horizon_units, [&] { order.push_back(3); });
  EXPECT_TRUE(sim.cancel(cancelled));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), horizon_units);
}

TEST(TimerWheelTest, ZeroDelayScheduleAfterRunsSameTickFifo) {
  // schedule_after(0) from inside a handler lands at a tick <= cursor and
  // must run within the same simulator tick, in submission order, after
  // the scheduling handler returns.
  Simulator sim(SchedulerKind::Wheel);
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(0);
    sim.schedule_after(0.0, [&] { order.push_back(1); });
    sim.schedule_after(0.0, [&] {
      order.push_back(2);
      sim.schedule_after(0.0, [&] { order.push_back(4); });
    });
    sim.schedule_after(0.0, [&] { order.push_back(3); });
  });
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
}

TEST(TimerWheelTest, EventIdGenerationSurvivesReset) {
  // reset() bumps the generation of every live slot; an EventId captured
  // before the reset must not cancel the slot's next occupant.
  Simulator sim(SchedulerKind::Wheel);
  EventId before = sim.schedule_at(1.0, [] {});
  sim.reset();
  EXPECT_TRUE(sim.idle());
  bool ran = false;
  EventId after = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_NE(before, after);
  EXPECT_FALSE(sim.cancel(before));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_TRUE(ran);
}

TEST(TimerWheelTest, ResetRestoresEpoch) {
  // After running deep into simulated time the cursor sits far from zero;
  // reset() must restore the epoch so early timers fire correctly again.
  Simulator sim(SchedulerKind::Wheel);
  sim.schedule_at(5000.0, [] {});
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_DOUBLE_EQ(sim.now(), 5000.0);
  sim.reset();
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  double fired_at = -1.0;
  sim.schedule_at(0.5, [&] { fired_at = sim.now(); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_DOUBLE_EQ(fired_at, 0.5);
}

namespace {

/// A deterministic mixed-delay workload; returns an order-sensitive digest
/// of the execution trajectory (time and identity of every firing).
std::uint64_t run_trajectory(Simulator& sim) {
  std::uint64_t digest = 14695981039346656037ull;
  auto absorb = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 1099511628211ull;
  };
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    const double at = 0.25 * (i % 7 + 1) + 3.0 * i;
    ids.push_back(sim.schedule_at(at, [&absorb, i, &sim] {
      absorb(static_cast<std::uint64_t>(i));
      absorb(static_cast<std::uint64_t>(sim.now() * 1024.0));
      if (i % 5 == 0) {
        sim.schedule_after(0.125 * (i % 3 + 1),
                           [&absorb] { absorb(0xABCDu); });
      }
    }));
  }
  for (int i = 0; i < 200; i += 3) {
    sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  absorb(sim.run());
  return digest;
}

}  // namespace

TEST(TimerWheelTest, AlternatingSchedulerResetsInOneSimulator) {
  // One pooled simulator alternating wheel and heap across resets must
  // reproduce each fresh simulator's trajectory exactly — the regression
  // for arenas whose campaign config flips scheduler kind between runs.
  Simulator fresh_wheel(SchedulerKind::Wheel);
  Simulator fresh_heap(SchedulerKind::Heap);
  const std::uint64_t wheel_digest = run_trajectory(fresh_wheel);
  const std::uint64_t heap_digest = run_trajectory(fresh_heap);
  EXPECT_EQ(wheel_digest, heap_digest);

  Simulator pooled(SchedulerKind::Wheel);
  EXPECT_EQ(run_trajectory(pooled), wheel_digest);
  pooled.reset(SchedulerKind::Heap);
  EXPECT_EQ(run_trajectory(pooled), heap_digest);
  pooled.reset(SchedulerKind::Wheel);
  EXPECT_EQ(run_trajectory(pooled), wheel_digest);
  pooled.reset();  // kind-preserving reset stays on the wheel
  EXPECT_EQ(pooled.scheduler_kind(), SchedulerKind::Wheel);
  EXPECT_EQ(run_trajectory(pooled), wheel_digest);
}

TEST(PeriodicTimerTest, FiresEveryPeriod) {
  Simulator sim;
  std::vector<double> fires;
  PeriodicTimer timer(sim, 10.0, [&] { fires.push_back(sim.now()); });
  timer.start();
  sim.run_until(35.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 20.0, 30.0}));
}

TEST(PeriodicTimerTest, StartAfterCustomDelay) {
  Simulator sim;
  std::vector<double> fires;
  PeriodicTimer timer(sim, 10.0, [&] { fires.push_back(sim.now()); });
  timer.start_after(3.0);
  sim.run_until(25.0);
  EXPECT_EQ(fires, (std::vector<double>{3.0, 13.0, 23.0}));
}

TEST(PeriodicTimerTest, StopHaltsFiring) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] { ++count; });
  timer.start();
  sim.run_until(5.5);
  timer.stop();
  sim.run_until(20.0);
  EXPECT_EQ(count, 5);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, StopFromWithinCallback) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1.0, [&] {
    if (++count == 3) timer.stop();
  });
  timer.start();
  sim.run_until(100.0);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimerTest, RestartInsideCallbackFiresOncePerPeriod) {
  // A callback that restarts its own timer must leave exactly one arm
  // pending: the restart's, not the restart's plus the automatic re-arm.
  Simulator sim;
  std::vector<Time> fires;
  PeriodicTimer timer(sim, 1.0, [&] {
    fires.push_back(sim.now());
    if (fires.size() % 3 == 1) {
      timer.stop();
      timer.start();
    }
  });
  timer.start();
  sim.run_until(10.5);
  const std::vector<Time> expected = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(fires, expected);
  EXPECT_TRUE(timer.running());
  timer.stop();
  sim.run_until(20.0);
  EXPECT_EQ(fires.size(), expected.size());
}

TEST(PeriodicTimerTest, ZeroPeriodViolatesContract) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, 0.0, [] {}), ContractViolation);
}

}  // namespace
}  // namespace fortress::sim
