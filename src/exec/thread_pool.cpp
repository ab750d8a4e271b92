#include "exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace fortress::exec {

namespace {
// True while this thread is executing chunks of a parallel_chunks job (as
// the caller or as a pool worker). A nested parallel_chunks from inside a
// chunk would deadlock on the pool's one-job-at-a-time mutex; the flag lets
// nested calls degrade to the inline path instead.
thread_local bool t_in_chunk_job = false;

// Slot index of this thread: 0 for non-workers (every caller thread), i+1
// for persistent worker i. Assigned once at worker spawn.
thread_local unsigned t_worker_slot = 0;

// Waits until done(word) holds and returns the value that satisfied it,
// parking on the word with std::atomic::wait until a store and notify
// change it.
template <typename Done>
std::uint32_t await_word(const std::atomic<std::uint32_t>& word, Done done) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  while (!done(v)) {
    word.wait(v, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
  }
  return v;
}
}  // namespace

struct ThreadPool::Impl {
  using ChunkFn = std::function<void(std::uint64_t, std::uint64_t,
                                     std::uint64_t)>;

  // One worker's wake-up word, alone on its cache line so a store to it
  // touches no other worker's line. The caller bumps it to invite the
  // worker to the current job (or to shut down).
  struct alignas(64) WakeWord {
    std::atomic<std::uint32_t> go{0};
  };

  // One job at a time: concurrent parallel_chunks callers serialize here.
  std::mutex job_m;

  // Current job. Written by the caller before it bumps the invited workers'
  // words (release) and read by those workers after they see the bump
  // (acquire), so plain fields suffice.
  const ChunkFn* fn = nullptr;
  std::uint64_t total = 0;
  std::uint64_t chunk_size = 0;
  std::uint64_t n_chunks = 0;
  bool shutting_down = false;

  // Hot atomics, each on its own cache line: the chunk ticket every thread
  // of the job hammers, and the countdown of invited workers still inside
  // drain() that the caller waits on.
  alignas(64) std::atomic<std::uint64_t> ticket{0};
  alignas(64) std::atomic<std::uint32_t> running{0};

  std::mutex error_m;
  std::exception_ptr first_error;  // guarded by error_m

  std::unique_ptr<WakeWord[]> words;
  std::vector<std::thread> threads;

  // Claim chunks until the grid is exhausted. Called concurrently by the
  // caller thread and the invited workers.
  void drain() {
    struct FlagGuard {
      ~FlagGuard() { t_in_chunk_job = false; }
    } guard;
    t_in_chunk_job = true;
    while (true) {
      std::uint64_t c = ticket.fetch_add(1, std::memory_order_relaxed);
      if (c >= n_chunks) return;
      std::uint64_t begin = c * chunk_size;
      std::uint64_t end = begin + chunk_size;
      if (end > total) end = total;
      try {
        (*fn)(c, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_m);
        if (!first_error) first_error = std::current_exception();
        // Keep draining tickets so the job terminates promptly: claim the
        // rest without running fn.
        ticket.store(n_chunks, std::memory_order_relaxed);
        return;
      }
    }
  }

  void worker_loop(unsigned index) {
    const std::atomic<std::uint32_t>& go = words[index].go;
    std::uint32_t seen = 0;
    while (true) {
      seen = await_word(go, [seen](std::uint32_t v) { return v != seen; });
      if (shutting_down) return;
      drain();
      if (running.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        running.notify_one();
      }
    }
  }
};

ThreadPool::ThreadPool(unsigned threads) : impl_(new Impl) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // The caller participates in every job, so `threads` persistent workers
  // give `threads + 1`-way parallelism; spawn one fewer than requested and
  // never fewer than zero.
  unsigned spawned = threads > 1 ? threads - 1 : 0;
  impl_->words = std::make_unique<Impl::WakeWord[]>(spawned);
  impl_->threads.reserve(spawned);
  for (unsigned i = 0; i < spawned; ++i) {
    impl_->threads.emplace_back([this, i] {
      t_worker_slot = i + 1;
      impl_->worker_loop(i);
    });
  }
  n_workers_ = spawned;
}

unsigned ThreadPool::current_slot() { return t_worker_slot; }

ThreadPool::~ThreadPool() {
  {
    // No job can be in flight once job_m is ours; the flag is published to
    // each worker by the release bump of its word.
    std::lock_guard<std::mutex> job_lock(impl_->job_m);
    impl_->shutting_down = true;
    for (unsigned i = 0; i < n_workers_; ++i) {
      impl_->words[i].go.fetch_add(1, std::memory_order_release);
      impl_->words[i].go.notify_one();
    }
  }
  for (auto& t : impl_->threads) t.join();
  delete impl_;
}

ThreadPool& ThreadPool::shared() {
  // At least 8-way so callers requesting a fixed thread count (tests pin
  // 1/3/8) get real cross-thread scheduling even on small machines; workers
  // a job does not invite stay parked and cost nothing.
  static ThreadPool pool(std::max(std::thread::hardware_concurrency(), 8u));
  return pool;
}

void ThreadPool::parallel_chunks(
    std::uint64_t total, std::uint64_t chunk_size, unsigned parallelism,
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>&
        fn) {
  FORTRESS_EXPECTS(chunk_size > 0);
  if (total == 0) return;

  const std::uint64_t n_chunks = chunk_count(total, chunk_size);
  if (parallelism == 0) parallelism = size() + 1;

  // Nested use (a chunk function calling back into the pool) runs inline:
  // taking job_m here would deadlock against the outer job holding it.
  if (parallelism <= 1 || size() == 0 || n_chunks == 1 || t_in_chunk_job) {
    // Inline fast path: chunk order == index order.
    for (std::uint64_t c = 0; c < n_chunks; ++c) {
      std::uint64_t begin = c * chunk_size;
      std::uint64_t end = begin + chunk_size;
      if (end > total) end = total;
      fn(c, begin, end);
    }
    return;
  }

  std::lock_guard<std::mutex> job_lock(impl_->job_m);
  // Invite exactly the lowest workers the job can use: slots 1..k, beside
  // the caller's slot 0. The rest are never woken.
  const auto invited = static_cast<std::uint32_t>(
      std::min<std::uint64_t>({parallelism - 1, size(), n_chunks - 1}));
  impl_->fn = &fn;
  impl_->total = total;
  impl_->chunk_size = chunk_size;
  impl_->n_chunks = n_chunks;
  impl_->ticket.store(0, std::memory_order_relaxed);
  impl_->running.store(invited, std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < invited; ++i) {
    impl_->words[i].go.fetch_add(1, std::memory_order_release);
    impl_->words[i].go.notify_one();
  }

  impl_->drain();  // caller works too

  await_word(impl_->running, [](std::uint32_t v) { return v == 0; });
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(impl_->error_m);
    err = std::exchange(impl_->first_error, nullptr);
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace fortress::exec
