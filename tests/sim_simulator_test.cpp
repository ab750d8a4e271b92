#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

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

TEST(PeriodicTimerTest, RearmsInPlaceWithAFreshIdEachFire) {
  // Each fire keeps the slot (no slab allocation) but releases the fired
  // id: the old id reads as stale, the re-armed one is live. Inside the
  // callback, cancelling the id of the running fire returns false and
  // leaves the re-arm intact.
  Simulator sim;
  std::vector<EventId> seen;
  std::vector<bool> own_cancelled;
  PeriodicTimer timer(sim, 1.0, [&] {
    own_cancelled.push_back(sim.cancel(seen.back()));
  });
  timer.start();
  for (int i = 0; i < 4; ++i) {
    seen.push_back(timer.armed_event());
    sim.run_until(i + 1.5);
  }
  EXPECT_EQ(own_cancelled, (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(sim.work().slot_allocs, 1u);
  EXPECT_EQ(sim.work().rearms, 4u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i] >> 32, seen[0] >> 32) << "fire " << i << " moved slot";
    for (std::size_t j = 0; j < i; ++j) EXPECT_NE(seen[i], seen[j]);
    EXPECT_FALSE(sim.cancel(seen[i]));
  }
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(PeriodicTimerTest, CancellingTheRearmedIdStopsTheFires) {
  // Another event cancels the timer's re-armed id between fires: nothing
  // fires again, the id goes stale, and stop() and start() afterwards
  // behave as for any stale id.
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 1.0, [&] { ++fires; });
  timer.start();
  sim.schedule_at(2.5, [&] { EXPECT_TRUE(sim.cancel(timer.armed_event())); });
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.cancel(timer.armed_event()));
  timer.stop();
  timer.start();
  EXPECT_EQ(sim.pending(), 1u);
  sim.run_until(12.5);
  EXPECT_EQ(fires, 4);  // at 11 and 12
}

TEST(PeriodicTimerTest, StopInsideCallbackRecyclesTheSlot) {
  Simulator sim;
  int fires = 0;
  PeriodicTimer timer(sim, 1.0, [&] {
    if (++fires == 2) timer.stop();
  });
  timer.start();
  const EventId first = timer.armed_event();
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(sim.work().rearms, 1u);
  // The slot went back to the free list after the final fire.
  EXPECT_EQ(sim.schedule_at(11.0, [] {}) >> 32, first >> 32);
}

TEST(PeriodicTimerTest, ResetWhileRearmedTimerIsPending) {
  // reset() destroys the in-place re-armed event like any pending one: its
  // id goes stale, nothing fires, and the timer restarts cleanly.
  for (const SchedulerKind kind : {SchedulerKind::Wheel, SchedulerKind::Heap}) {
    Simulator sim(kind);
    std::vector<Time> fires;
    PeriodicTimer timer(sim, 1.0, [&] { fires.push_back(sim.now()); });
    timer.start();
    sim.run_until(3.5);
    ASSERT_EQ(fires.size(), 3u);
    const EventId rearmed = timer.armed_event();
    EXPECT_EQ(sim.pending(), 1u);
    sim.reset();
    EXPECT_TRUE(sim.idle());
    EXPECT_EQ(sim.work().fires, 0u);
    EXPECT_FALSE(sim.cancel(rearmed));
    sim.run_until(10.0);
    EXPECT_EQ(fires.size(), 3u);
    timer.stop();
    timer.start();
    EXPECT_NE(timer.armed_event(), rearmed);
    sim.run_until(12.5);
    EXPECT_EQ(fires, (std::vector<Time>{1, 2, 3, 11, 12}));
  }
}

TEST(SimulatorTest, PendingCountsLiveEventsAcrossRearmsAndCancels) {
  for (const SchedulerKind kind : {SchedulerKind::Wheel, SchedulerKind::Heap}) {
    Simulator sim(kind);
    PeriodicTimer a(sim, 1.0, [] {});
    PeriodicTimer b(sim, 0.25, [] {});
    a.start();
    b.start();
    const EventId one = sim.schedule_at(0.6, [] {});
    const EventId two = sim.schedule_at(500.0, [] {});  // level 2 from 0
    sim.schedule_at(0.6, [] {});
    EXPECT_EQ(sim.pending(), 5u);
    EXPECT_TRUE(sim.cancel(one));
    EXPECT_EQ(sim.pending(), 4u);
    sim.run_until(2.1);  // a fired twice, b eight times, one one-shot
    EXPECT_EQ(sim.pending(), 3u);
    EXPECT_EQ(sim.work().fires, 11u);
    EXPECT_EQ(sim.work().rearms, 10u);
    b.stop();
    EXPECT_EQ(sim.pending(), 2u);
    EXPECT_TRUE(sim.cancel(two));
    EXPECT_EQ(sim.pending(), 1u);
    a.stop();
    EXPECT_TRUE(sim.idle());
  }
}

TEST(TimerWheelTest, LoneLevelTwoEntryPastRunUntilBound) {
  // A lone entry of a level-2 bucket runs directly. Past the run_until
  // bound it must wait — in the bound's own tick, or in a later tick of the
  // bucket (it then cascades) — and later schedules must still interleave
  // with it in exact (time, seq) order.
  for (const SchedulerKind kind : {SchedulerKind::Wheel, SchedulerKind::Heap}) {
    std::vector<std::pair<Time, int>> trace;
    Simulator sim(kind);
    const auto log = [&](int label) {
      return [&trace, &sim, label] { trace.emplace_back(sim.now(), label); };
    };
    // 100.0, 100.0002 and 100.0004 share tick 102400 (level 2 from tick 0).
    sim.schedule_at(100.0004, log(1));
    EXPECT_EQ(sim.run_until(50.0), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 50.0);
    EXPECT_EQ(sim.run_until(100.0), 0u);
    EXPECT_DOUBLE_EQ(sim.now(), 100.0);
    EXPECT_EQ(sim.pending(), 1u);
    sim.schedule_at(100.0004, log(2));
    sim.schedule_at(100.0002, log(3));
    sim.schedule_at(300.0, log(4));
    EXPECT_EQ(sim.run_until(200.0), 3u);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(trace, (std::vector<std::pair<Time, int>>{
                         {100.0002, 3}, {100.0004, 1}, {100.0004, 2},
                         {300.0, 4}}));

    // Same level-2 bucket, later tick than the bound's.
    trace.clear();
    sim.reset();
    sim.schedule_at(100.5, log(1));
    EXPECT_EQ(sim.run_until(100.0), 0u);
    sim.schedule_at(100.5, log(2));
    sim.schedule_at(100.2, log(3));
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(trace, (std::vector<std::pair<Time, int>>{
                         {100.2, 3}, {100.5, 1}, {100.5, 2}}));
  }
}

namespace {

using Trace = std::vector<std::pair<Time, std::uint64_t>>;

/// A randomized mixed workload: one-shots at delays spanning the wheel's
/// levels (and zero, and ties on a coarse grid), periodic timers that
/// stop, restart and re-arm in place, cancels of live and stale one-shot
/// and timer ids, run_until and step boundaries (some exactly on event
/// times) and mid-run resets. Returns the (time, label) trace of every
/// fire plus the executed and pending counts at each boundary. Handlers
/// draw from the same Rng, so any divergence in execution order shows in
/// the trace.
Trace random_trace(SchedulerKind kind, std::uint64_t seed) {
  Simulator sim(kind);
  Rng rng(seed);
  Trace trace;
  std::vector<EventId> ids;
  std::vector<std::unique_ptr<PeriodicTimer>> timers;
  constexpr std::uint64_t kTimerLabel = 1u << 20;
  constexpr std::uint64_t kBoundaryLabel = 1u << 21;
  constexpr std::uint64_t kPendingLabel = 1u << 22;
  std::uint64_t next_label = 0;

  const auto delay = [&rng]() -> Time {
    switch (rng.below(5)) {
      case 0: return 0.0;
      case 1: return rng.uniform01() * 0.05;   // levels 0-1
      case 2: return rng.uniform01() * 4.0;    // levels 1-2
      case 3: return rng.uniform01() * 300.0;  // levels 2-3
      default: return 0.5 * static_cast<double>(rng.below(8));  // ties
    }
  };
  const auto poke_timer = [&] {
    PeriodicTimer& t = *timers[rng.below(timers.size())];
    if (t.running()) {
      t.stop();
    } else {
      t.start();
    }
  };
  std::function<void(int)> schedule_one = [&](int depth) {
    const std::uint64_t label = next_label++;
    ids.push_back(sim.schedule_after(delay(), [&, label, depth] {
      trace.emplace_back(sim.now(), label);
      if (depth < 3 && rng.below(3) == 0) schedule_one(depth + 1);
      if (rng.below(4) == 0) sim.cancel(ids[rng.below(ids.size())]);
      if (rng.below(6) == 0) poke_timer();
    }));
  };
  const Time periods[] = {0.01, 0.25, 1.0, 3.7, 40.0, 0.5};
  for (std::size_t i = 0; i < std::size(periods); ++i) {
    timers.push_back(std::make_unique<PeriodicTimer>(sim, periods[i], [&, i] {
      trace.emplace_back(sim.now(), kTimerLabel + i);
      PeriodicTimer& self = *timers[i];
      switch (rng.below(12)) {
        case 0: self.stop(); break;
        case 1: self.stop(); self.start(); break;  // the fresh arm wins
        case 2: schedule_one(1); break;
        default: break;
      }
    }));
  }
  for (auto& t : timers) t->start_after(delay());

  for (int round = 0; round < 60; ++round) {
    const std::uint64_t births = rng.below(8);
    for (std::uint64_t i = 0; i < births; ++i) schedule_one(0);
    if (rng.below(5) == 0 && !ids.empty()) {
      sim.cancel(ids[rng.below(ids.size())]);
    }
    if (rng.below(4) == 0) poke_timer();
    // A timer's armed id: a later cancel may hit it live (re-armed in
    // place) or stale (it fired since).
    ids.push_back(timers[rng.below(timers.size())]->armed_event());
    std::uint64_t executed = 0;
    if (rng.below(6) == 0) {
      executed = sim.step() ? 1 : 0;
    } else {
      executed = sim.run_until(sim.now() + delay());
    }
    trace.emplace_back(sim.now(), kBoundaryLabel + executed);
    trace.emplace_back(sim.now(), kPendingLabel + sim.pending());
    if (rng.below(12) == 0) {
      sim.reset();
      ids.clear();
      for (auto& t : timers) {
        t->stop();
        if (rng.below(2) == 0) t->start_after(delay());
      }
    }
  }
  const std::uint64_t last = sim.run_until(sim.now() + 100.0);
  trace.emplace_back(sim.now(), kBoundaryLabel + last);
  for (auto& t : timers) t->stop();
  return trace;
}

}  // namespace

TEST(TimerWheelTest, RandomizedWheelMatchesHeapTrace) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Trace wheel = random_trace(SchedulerKind::Wheel, seed);
    const Trace heap = random_trace(SchedulerKind::Heap, seed);
    ASSERT_GT(wheel.size(), 200u) << "seed " << seed;
    ASSERT_EQ(wheel.size(), heap.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel.size(); ++i) {
      ASSERT_EQ(wheel[i], heap[i]) << "seed " << seed << ", entry " << i;
    }
  }
}

TEST(PeriodicTimerTest, ZeroPeriodViolatesContract) {
  Simulator sim;
  EXPECT_THROW(PeriodicTimer(sim, 0.0, [] {}), ContractViolation);
}

}  // namespace
}  // namespace fortress::sim
