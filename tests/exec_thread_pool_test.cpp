#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace fortress::exec {
namespace {

TEST(ThreadPoolTest, ChunkGridCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(1000);
  pool.parallel_chunks(1000, 64, 0, [&](std::uint64_t, std::uint64_t begin,
                                        std::uint64_t end) {
    for (std::uint64_t i = begin; i < end; ++i) {
      seen[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, ChunkIndicesMatchGrid) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(ThreadPool::chunk_count(530, 100));
  pool.parallel_chunks(530, 100, 0, [&](std::uint64_t chunk,
                                        std::uint64_t begin,
                                        std::uint64_t end) {
    EXPECT_EQ(begin, chunk * 100);
    EXPECT_EQ(end, std::min<std::uint64_t>(530, begin + 100));
    hits[chunk].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, GridIndependentOfParallelism) {
  // The determinism contract: the (chunk_index, begin, end) set must be the
  // same for every parallelism level.
  ThreadPool pool(8);
  auto grid_of = [&](unsigned parallelism) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> grid(
        ThreadPool::chunk_count(777, 32));
    pool.parallel_chunks(777, 32, parallelism,
                         [&](std::uint64_t c, std::uint64_t b,
                             std::uint64_t e) { grid[c] = {b, e}; });
    return grid;
  };
  auto g1 = grid_of(1);
  auto g3 = grid_of(3);
  auto g8 = grid_of(8);
  EXPECT_EQ(g1, g3);
  EXPECT_EQ(g1, g8);
}

TEST(ThreadPoolTest, SequentialParallelismRunsInline) {
  ThreadPool pool(4);
  std::thread::id caller = std::this_thread::get_id();
  pool.parallel_chunks(100, 10, 1, [&](std::uint64_t, std::uint64_t,
                                       std::uint64_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_chunks(
                   100, 10, 0,
                   [&](std::uint64_t c, std::uint64_t, std::uint64_t) {
                     if (c == 3) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool must still be usable after a failed job.
  std::atomic<std::uint64_t> sum{0};
  pool.parallel_chunks(10, 1, 0, [&](std::uint64_t, std::uint64_t b,
                                     std::uint64_t) {
    sum.fetch_add(b, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 45u);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_chunks(0, 16, 0, [&](std::uint64_t, std::uint64_t,
                                     std::uint64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, ZeroChunkSizeViolatesContract) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_chunks(
                   10, 0, 0,
                   [](std::uint64_t, std::uint64_t, std::uint64_t) {}),
               ContractViolation);
}

TEST(ThreadPoolTest, ReusableAcrossManyJobs) {
  // Persistent workers: many small jobs must all complete (regression guard
  // against lost wakeups between generations).
  ThreadPool pool(4);
  for (int job = 0; job < 200; ++job) {
    std::atomic<int> count{0};
    pool.parallel_chunks(32, 4, 0, [&](std::uint64_t, std::uint64_t b,
                                       std::uint64_t e) {
      count.fetch_add(static_cast<int>(e - b), std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 32) << "job " << job;
  }
}

TEST(ThreadPoolTest, NestedParallelChunksRunsInlineInsteadOfDeadlocking) {
  // A chunk function that re-enters the pool must degrade to the inline
  // path (the pool runs one job at a time; a nested job would deadlock).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> inner_seen(64);
  std::atomic<int> outer_chunks{0};
  pool.parallel_chunks(8, 1, 0, [&](std::uint64_t outer, std::uint64_t,
                                    std::uint64_t) {
    outer_chunks.fetch_add(1, std::memory_order_relaxed);
    pool.parallel_chunks(8, 2, 0, [&](std::uint64_t, std::uint64_t begin,
                                      std::uint64_t end) {
      for (std::uint64_t i = begin; i < end; ++i) {
        inner_seen[outer * 8 + i].fetch_add(1, std::memory_order_relaxed);
      }
    });
  });
  EXPECT_EQ(outer_chunks.load(), 8);
  for (const auto& s : inner_seen) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPoolTest, CurrentSlotIsStableAndDisjointPerThread) {
  // The campaign's per-worker TrialArena pool indexes scratch state by
  // current_slot(): the caller must be slot 0, workers 1..size(), every
  // slot in range, and a thread must observe the SAME slot across chunks
  // (slots are per-thread identities, not per-chunk tickets).
  ThreadPool pool(4);
  EXPECT_EQ(ThreadPool::current_slot(), 0u);  // non-worker thread
  EXPECT_EQ(pool.slot_count(), pool.size() + 1);

  std::mutex m;
  std::map<std::thread::id, std::set<unsigned>> slots_by_thread;
  pool.parallel_chunks(256, 1, 0, [&](std::uint64_t, std::uint64_t,
                                      std::uint64_t) {
    const unsigned slot = ThreadPool::current_slot();
    std::lock_guard<std::mutex> lock(m);
    slots_by_thread[std::this_thread::get_id()].insert(slot);
  });

  std::set<unsigned> all_slots;
  for (const auto& [tid, slots] : slots_by_thread) {
    // Stable: one slot per thread.
    EXPECT_EQ(slots.size(), 1u);
    const unsigned slot = *slots.begin();
    EXPECT_LT(slot, pool.slot_count());
    // Disjoint: no two threads share a slot.
    EXPECT_TRUE(all_slots.insert(slot).second);
  }
}

// Runs one job of `parallelism` over exactly `parallelism` chunks whose
// bodies wait (bounded) until that many distinct slots have entered, and
// returns the slots that ran it. On a pool that wakes the lowest workers
// the set is {0, .., parallelism-1}. `body(slot)` runs in every chunk once
// all have met, so a test can throw from a chosen slot.
template <typename Body>
std::set<unsigned> rendezvous_slots(ThreadPool& pool, unsigned parallelism,
                                    Body body) {
  std::mutex m;
  std::condition_variable all_in;
  std::set<unsigned> slots;
  auto chunk = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
    const unsigned slot = ThreadPool::current_slot();
    {
      std::unique_lock<std::mutex> lock(m);
      slots.insert(slot);
      all_in.notify_all();
      all_in.wait_for(lock, std::chrono::seconds(10),
                      [&] { return slots.size() >= parallelism; });
    }
    body(slot);
  };
  pool.parallel_chunks(parallelism, 1, parallelism, chunk);
  return slots;
}

TEST(ThreadPoolTest, JobRunsOnLowestSlots) {
  // A job of parallelism p runs on slots 0..p-1 — the same threads job
  // after job — so per-slot state sized by p covers every thread of it and
  // the other workers stay parked.
  ThreadPool pool(8);
  const std::set<unsigned> want = {0, 1, 2, 3};
  for (int job = 0; job < 200; ++job) {
    ASSERT_EQ(rendezvous_slots(pool, 4, [](unsigned) {}), want)
        << "job " << job;
  }
}

TEST(ThreadPoolTest, ManyShortJobsBackToBack) {
  // Lost-wakeup guard for the wake-word hand-off: jobs follow each other
  // with no gap (workers still finishing the last job or about to park) and
  // with gaps of 0-150 us (workers parked or parking).
  ThreadPool pool(4);
  for (const bool gaps : {false, true}) {
    for (int job = 0; job < 20000; ++job) {
      std::atomic<int> hits[4] = {0, 0, 0, 0};
      pool.parallel_chunks(4, 1, 0, [&](std::uint64_t c, std::uint64_t,
                                        std::uint64_t) {
        hits[c].fetch_add(1, std::memory_order_relaxed);
      });
      for (int c = 0; c < 4; ++c) {
        ASSERT_EQ(hits[c].load(), 1) << "gaps " << gaps << " job " << job;
      }
      if (gaps) {
        const auto gap = std::chrono::microseconds((job % 4) * 50);
        const auto until = std::chrono::steady_clock::now() + gap;
        while (std::chrono::steady_clock::now() < until) {
        }
      }
    }
  }
}

TEST(ThreadPoolTest, DestroyWhileWorkersSpinOrPark) {
  for (int round = 0; round < 50; ++round) {
    {
      ThreadPool pool(4);  // never used: workers parked or not yet waiting
    }
    {
      ThreadPool pool(4);  // destroyed right after a job: workers parking
      std::atomic<int> count{0};
      pool.parallel_chunks(16, 1, 0, [&](std::uint64_t, std::uint64_t,
                                         std::uint64_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
      ASSERT_EQ(count.load(), 16);
    }
  }
  ThreadPool pool(4);  // destroyed while idle: workers parked
  pool.parallel_chunks(8, 1, 0,
                       [](std::uint64_t, std::uint64_t, std::uint64_t) {});
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

TEST(ThreadPoolTest, WorkerSlotExceptionReachesCallerAndPoolRecovers) {
  ThreadPool pool(8);
  EXPECT_THROW(rendezvous_slots(pool, 4,
                                [](unsigned slot) {
                                  if (slot == 2) {
                                    throw std::runtime_error("worker boom");
                                  }
                                }),
               std::runtime_error);
  const std::set<unsigned> want = {0, 1, 2, 3};
  EXPECT_EQ(rendezvous_slots(pool, 4, [](unsigned) {}), want);
  const std::set<unsigned> want2 = {0, 1};
  EXPECT_EQ(rendezvous_slots(pool, 2, [](unsigned) {}), want2);
}

TEST(ThreadPoolTest, SharedPoolSupportsEightWayRequests) {
  // estimate_lifetime's thread-count-invariance tests pin 8 threads; the
  // shared pool must accept that parallelism on any machine.
  EXPECT_GE(ThreadPool::shared().size() + 1, 8u);
}

}  // namespace
}  // namespace fortress::exec
