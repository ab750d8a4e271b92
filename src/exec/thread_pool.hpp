// thread_pool.hpp — persistent worker pool with chunked dynamic scheduling.
//
// The Monte-Carlo engine (and any future data-parallel kernel) needs two
// things a naive std::thread-per-call design does not give:
//
//  1. No thread churn: a run of many estimate_lifetime calls (a bench sweep)
//     must not pay thread creation/teardown per call. Workers are created
//     once. A job of parallelism p invites exactly the lowest
//     k = min(p-1, size(), chunks-1) workers (slots 1..k), each woken through
//     its own cache-line-aligned atomic word (store + notify_one); the other
//     workers never wake. So the same threads, and the same malloc arenas,
//     serve job after job. Workers park on their word with
//     std::atomic::wait; the caller waits the same way on an atomic
//     countdown of running workers.
//
//  2. Dynamic load balancing: lifetime-trial lengths are heavy-tailed, so a
//     static partition of the trial range stalls entire shards behind one
//     long censored trial. Instead the index range is cut into fixed-size
//     chunks and an atomic ticket hands out the next chunk to whichever
//     worker goes idle first — the shared-ticket formulation of work
//     stealing (every idle worker "steals" the next unclaimed chunk).
//
// Determinism contract: the chunk grid depends only on (total, chunk_size),
// never on the worker count or on which worker runs which chunk. Callers
// that write per-chunk results into slot `chunk_index` and reduce the slots
// in index order therefore produce results that are bit-identical for ANY
// thread count (see montecarlo::estimate_lifetime).
#pragma once

#include <cstdint>
#include <functional>

namespace fortress::exec {

/// Persistent thread pool. Jobs are serialized: one parallel_chunks call
/// executes at a time (callers on other threads queue on an internal mutex).
class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (0 = hardware concurrency).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of persistent workers (excluding the caller, who also works).
  unsigned size() const { return n_workers_; }

  /// Stable slot index of the current thread: 0 for any non-worker thread
  /// (the parallel_chunks caller included), i+1 for persistent worker i OF
  /// ITS OWN POOL — the value is a per-thread identity, not scoped to the
  /// pool running the current job. Within one pool's jobs slots are
  /// disjoint (jobs serialize, so at most one thread occupies each slot),
  /// making per-slot scratch state race-free when indexed by this — but a
  /// worker of a LARGER foreign pool can report a slot >= this pool's
  /// slot_count(), so callers sizing arrays by slot_count() must bounds-
  /// check (see run_campaign's fresh-path fallback).
  static unsigned current_slot();

  /// Number of distinct slots current_slot() can report (size() + 1).
  unsigned slot_count() const { return n_workers_ + 1; }

  /// Process-wide shared pool, created on first use with hardware
  /// concurrency. Intended for library internals; sized once.
  static ThreadPool& shared();

  /// fn(chunk_index, begin, end) over the chunk grid of [0, total) with
  /// chunks of `chunk_size` (the last chunk may be short). At most
  /// `parallelism` threads run fn concurrently (0 = no cap); the calling
  /// thread always participates, so parallelism == 1 runs everything inline
  /// in chunk order. A job that goes to the pool runs on the lowest slots
  /// only: 0 (the caller) and 1..k, k = min(parallelism-1, size(), chunks-1),
  /// so per-slot state sized by the parallelism covers it. The first
  /// exception thrown by fn is rethrown on the caller after all workers
  /// drain.
  void parallel_chunks(
      std::uint64_t total, std::uint64_t chunk_size, unsigned parallelism,
      const std::function<void(std::uint64_t chunk_index, std::uint64_t begin,
                               std::uint64_t end)>& fn);

  /// Chunk-grid helper: number of chunks covering [0, total).
  static std::uint64_t chunk_count(std::uint64_t total,
                                   std::uint64_t chunk_size) {
    return chunk_size == 0 ? 0 : (total + chunk_size - 1) / chunk_size;
  }

 private:
  struct Impl;
  Impl* impl_;  // pimpl: keeps <atomic>/<mutex>/<thread> out of the header
  unsigned n_workers_ = 0;
};

}  // namespace fortress::exec
