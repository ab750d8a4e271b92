#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <string_view>

namespace fortress::sim {

SchedulerKind default_scheduler_kind() {
  static const SchedulerKind kind = [] {
    const char* env = std::getenv("FORTRESS_SIM_SCHEDULER");
    if (env != nullptr) {
      const std::string_view v(env);
      if (v == "heap") return SchedulerKind::Heap;
      if (v == "wheel") return SchedulerKind::Wheel;
      FORTRESS_CHECK(false && "FORTRESS_SIM_SCHEDULER must be wheel|heap");
    }
    return SchedulerKind::Wheel;
  }();
  return kind;
}

const char* to_string(SchedulerKind kind) {
  return kind == SchedulerKind::Heap ? "heap" : "wheel";
}

EventId Simulator::schedule_at(Time at, EventFn fn) {
  FORTRESS_EXPECTS(at >= now_);
  FORTRESS_EXPECTS(static_cast<bool>(fn));
  const std::uint32_t slot = alloc_node();
  Node& n = node(slot);
  fn_of(slot) = std::move(fn);
  n.at = at;
  n.seq = next_seq_++;
  enqueue(slot);
  return make_id(slot, n.gen);
}

EventId Simulator::schedule_after(Time delay, EventFn fn) {
  FORTRESS_EXPECTS(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

/// Execute the handler of `slot` IN PLACE in the slab, then recycle the
/// slot. The id is released (generation bump) before invocation, so the
/// handler observes exactly the classic contract: cancel(own id) returns
/// false, and newly scheduled events may not collide with the running one
/// (the slot rejoins the free list only after the handler returns — chunked
/// storage keeps its address stable while the handler grows the slab).
/// Precondition: the slot's queue/bucket membership is already severed.
void Simulator::invoke_slot(std::uint32_t slot) {
  Node& n = node(slot);
  now_ = n.at;
  if (++n.gen == 0) n.gen = 1;
  n.loc = kLocFree;
  EventFn& fn = fn_of(slot);
  fn();
  fn.reset();
  n.next = free_head_;
  free_head_ = slot;
}

// ---------------------------------------------------------------------------
// Heap scheduler (reference implementation).
// ---------------------------------------------------------------------------

void Simulator::drop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  heap_.pop_back();
}

bool Simulator::heap_pop_and_run() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    drop_top();
    if (entry_stale(top)) {
      // Cancelled tombstone.
      FORTRESS_CHECK(cancelled_count_ > 0);
      --cancelled_count_;
      continue;
    }
    invoke_slot(top.slot);
    return true;
  }
  return false;
}

std::uint64_t Simulator::heap_run_until(Time until) {
  std::uint64_t executed = 0;
  while (!heap_.empty() && !stop_requested_) {
    // Skip tombstones to look at the real next event time.
    while (!heap_.empty() && entry_stale(heap_.front())) {
      drop_top();
      --cancelled_count_;
    }
    if (heap_.empty()) break;
    if (heap_.front().at > until) break;
    if (heap_pop_and_run()) ++executed;
  }
  return executed;
}

// ---------------------------------------------------------------------------
// Wheel scheduler.
// ---------------------------------------------------------------------------

void Simulator::unlink_from_bucket(std::uint32_t slot) {
  Node& n = node(slot);
  if (n.next != kNil) node(n.next).prev = n.prev;
  if (n.prev != kNil) {
    node(n.prev).next = n.next;
  } else {
    bucket_head_[n.loc] = n.next;
    if (n.next == kNil) {
      occupied_[n.loc >> kLevelBits] &=
          ~(std::uint64_t{1} << (n.loc & (kSlotsPerLevel - 1)));
    }
  }
}

/// Stage the next event, advancing the cursor (cascading coarse buckets,
/// draining eligible overflow) as needed, but never extracting a bucket
/// whose start tick exceeds `limit_tick`. Returns Due when due_ fronts a
/// live entry, Direct (with direct_slot_ set) when the sole entry of the
/// extracted tick can run without a due round-trip, and Empty when every
/// remaining entry (if any) starts past the limit.
Simulator::Advance Simulator::wheel_advance(std::uint64_t limit_tick) {
  for (;;) {
    // (1) A live entry already staged in the due heap wins outright: staged
    // entries are at ticks <= cursor_, earlier than anything in a bucket.
    while (!due_.empty() && entry_stale(due_.front())) {
      std::pop_heap(due_.begin(), due_.end(), FiresLater{});
      due_.pop_back();
      --cancelled_count_;
      --wheel_entries_;
    }
    if (!due_.empty()) return Advance::Due;

    // (2) Overflow timers whose tick now fits the wheel cascade in. The
    // overflow front has the minimum (time, seq) — ticks are monotone in
    // time — so an ineligible front means every overflow tick is still
    // beyond all bucket-resident ticks.
    while (!overflow_.empty()) {
      const HeapEntry top = overflow_.front();
      if (entry_stale(top)) {
        std::pop_heap(overflow_.begin(), overflow_.end(), FiresLater{});
        overflow_.pop_back();
        --cancelled_count_;
        --wheel_entries_;
        continue;
      }
      const std::uint64_t t = tick_of(top.at);
      if (t > cursor_ && level_of(t ^ cursor_) >= kLevels) break;
      std::pop_heap(overflow_.begin(), overflow_.end(), FiresLater{});
      overflow_.pop_back();
      wheel_place(top.slot, t);
    }
    if (!due_.empty()) return Advance::Due;  // drained straight into due

    // (3) Find the next occupied bucket. Within the current rotation a
    // level-L slot strictly after the cursor's index always starts before
    // any level-(L+1) candidate, so the first occupied level wins.
    int lvl = -1;
    std::uint32_t sl = 0;
    for (int l = 0; l < kLevels && lvl < 0; ++l) {
      const std::uint32_t idx =
          static_cast<std::uint32_t>(cursor_ >> (l * kLevelBits)) &
          (kSlotsPerLevel - 1);
      std::uint64_t mask = occupied_[static_cast<std::size_t>(l)];
      mask &= idx == kSlotsPerLevel - 1
                  ? std::uint64_t{0}
                  : ~((std::uint64_t{2} << idx) - 1);  // strictly above idx
      if (mask != 0) {
        lvl = l;
        sl = static_cast<std::uint32_t>(std::countr_zero(mask));
      }
    }
    if (lvl < 0) {
      // Wheel and due are both empty: jump the cursor straight to the
      // earliest far timer (nothing in between can exist).
      if (overflow_.empty()) return Advance::Empty;
      const std::uint64_t t = tick_of(overflow_.front().at);
      if (t > limit_tick) return Advance::Empty;
      cursor_ = t;
      continue;
    }

    const int shift = lvl * kLevelBits;
    const std::uint64_t rotation =
        cursor_ & ~(((std::uint64_t{1} << kLevelBits) << shift) - 1);
    const std::uint64_t slot_start =
        rotation | (static_cast<std::uint64_t>(sl) << shift);
    if (slot_start > limit_tick) return Advance::Empty;
    cursor_ = slot_start;
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(lvl) * kSlotsPerLevel + sl;
    std::uint32_t walk = bucket_head_[bucket];
    bucket_head_[bucket] = kNil;
    occupied_[static_cast<std::size_t>(lvl)] &= ~(std::uint64_t{1} << sl);
    if (lvl == 0) {
      // Level-0 buckets hold exactly one tick (== slot_start == cursor_
      // now). A lone entry needs no ordering — hand it to the run loop
      // directly, skipping the due heap entirely (the common case at
      // campaign event densities). Multiple entries stage into due_ for
      // exact (time, seq) ordering.
      if (node(walk).next == kNil) {
        direct_slot_ = walk;
        return Advance::Direct;
      }
      while (walk != kNil) {
        Node& n = node(walk);
        const std::uint32_t next = n.next;
        n.loc = kLocQueue;
        due_push(HeapEntry{n.at, n.seq, walk, n.gen});
        walk = next;
      }
    } else {
      // Coarse bucket: redistribute. Each entry's tick differs from the new
      // cursor only below this level, so re-insertion lands strictly lower
      // (or in due_ for the slot-start tick itself).
      while (walk != kNil) {
        const std::uint32_t next = node(walk).next;
        wheel_place(walk, tick_of(node(walk).at));
        walk = next;
      }
    }
  }
}

void Simulator::run_slot(std::uint32_t slot) {
  --wheel_entries_;
  invoke_slot(slot);
}

void Simulator::run_due_front() {
  const std::uint32_t slot = due_.front().slot;
  std::pop_heap(due_.begin(), due_.end(), FiresLater{});
  due_.pop_back();
  run_slot(slot);
}

bool Simulator::wheel_pop_and_run() {
  switch (wheel_advance(kNoLimit)) {
    case Advance::Empty:
      return false;
    case Advance::Direct:
      run_slot(direct_slot_);
      return true;
    case Advance::Due:
      run_due_front();
      return true;
  }
  return false;
}

std::uint64_t Simulator::wheel_run_until(Time until) {
  std::uint64_t executed = 0;
  const std::uint64_t limit_tick = tick_of(until);
  while (!stop_requested_) {
    const Advance a = wheel_advance(limit_tick);
    if (a == Advance::Empty) break;
    if (a == Advance::Direct) {
      // The limit tick is only slot-granular; the exact boundary check
      // (events at exactly `until` run, later ones in the same tick do
      // not) is here. A beyond-the-boundary direct entry re-stages into
      // due_ — its tick is already <= cursor_ — for the next call.
      Node& n = node(direct_slot_);
      if (n.at > until) {
        n.loc = kLocQueue;
        due_push(HeapEntry{n.at, n.seq, direct_slot_, n.gen});
        break;
      }
      run_slot(direct_slot_);
      ++executed;
      continue;
    }
    if (due_.front().at > until) break;
    run_due_front();
    ++executed;
  }
  return executed;
}

// ---------------------------------------------------------------------------
// Common driver surface.
// ---------------------------------------------------------------------------

bool Simulator::pop_and_run() {
  return kind_ == SchedulerKind::Heap ? heap_pop_and_run()
                                      : wheel_pop_and_run();
}

std::uint64_t Simulator::run_until(Time until) {
  stop_requested_ = false;
  const std::uint64_t executed = kind_ == SchedulerKind::Heap
                                     ? heap_run_until(until)
                                     : wheel_run_until(until);
  if (now_ < until && !stop_requested_) now_ = until;
  return executed;
}

std::uint64_t Simulator::run() {
  std::uint64_t executed = 0;
  stop_requested_ = false;
  while (!stop_requested_ && pop_and_run()) ++executed;
  return executed;
}

bool Simulator::step() { return pop_and_run(); }

void Simulator::reset() {
  // Destroy the handlers of LIVE slots only (their generation bump makes
  // every outstanding EventId stale; slots that already ran or were
  // cancelled had their generation bumped when they were freed), then
  // rebuild the free list over the whole slab in reverse slot order so
  // post-reset allocation hands out ascending slots just like a fresh
  // simulator. The rebuild streams 32-byte metadata nodes and never touches
  // the callable chunks — pooling a 10^5-slot slab costs a memory sweep,
  // not 10^5 destructor calls.
  const auto kill = [this](std::uint32_t slot) {
    Node& n = node(slot);
    fn_of(slot).reset();
    if (++n.gen == 0) n.gen = 1;
  };
  for (const HeapEntry& e : heap_) {
    if (!entry_stale(e)) kill(e.slot);
  }
  heap_.clear();
  for (const HeapEntry& e : due_) {
    if (!entry_stale(e)) kill(e.slot);
  }
  due_.clear();
  for (const HeapEntry& e : overflow_) {
    if (!entry_stale(e)) kill(e.slot);
  }
  overflow_.clear();
  for (std::size_t l = 0; l < kLevels; ++l) {
    std::uint64_t occ = occupied_[l];
    while (occ != 0) {
      const unsigned sl = static_cast<unsigned>(std::countr_zero(occ));
      occ &= occ - 1;
      const std::uint32_t bucket =
          static_cast<std::uint32_t>(l) * kSlotsPerLevel + sl;
      for (std::uint32_t walk = bucket_head_[bucket]; walk != kNil;
           walk = node(walk).next) {
        kill(walk);
      }
      bucket_head_[bucket] = kNil;
    }
    occupied_[l] = 0;
  }
  cursor_ = 0;
  wheel_entries_ = 0;
  cancelled_count_ = 0;
  free_head_ = kNil;
  for (std::uint32_t i = node_count_; i > 0; --i) {
    Node& n = node(i - 1);
    n.loc = kLocFree;
    n.next = free_head_;
    free_head_ = i - 1;
  }
  now_ = 0.0;
  next_seq_ = 0;
  stop_requested_ = false;
}

void Simulator::reset(SchedulerKind kind) {
  reset();
  kind_ = kind;
}

void PeriodicTimer::arm(Time delay) {
  pending_ = sim_.schedule_after(delay, [this] {
    if (!running_) return;
    // This event has fired: clear its id so a stop(); start(); inside fn_
    // is visible below as a fresh arm, which then replaces the re-arm.
    pending_ = 0;
    fn_();
    if (running_ && pending_ == 0) arm(period_);
  });
}

void PeriodicTimer::start() { start_after(period_); }

void PeriodicTimer::start_after(Time first_delay) {
  FORTRESS_EXPECTS(!running_);
  running_ = true;
  arm(first_delay);
}

void PeriodicTimer::stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    sim_.cancel(pending_);
    pending_ = 0;
  }
}

}  // namespace fortress::sim
