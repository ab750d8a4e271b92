// bench_micro — E12: google-benchmark microbenchmarks for the computational
// kernels: SHA-256, HMAC, message codec, Markov-chain solving, Monte-Carlo
// trial rates, the discrete-event simulator core and the exec pool's job
// hand-off.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/markov.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "crypto/batch.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernel.hpp"
#include "exec/thread_pool.hpp"
#include "model/lifetime_sim.hpp"
#include "montecarlo/engine.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace fortress;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key = bytes_of("principal-secret");
  Bytes data(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(256)->Arg(4096);

void BM_MessageEncodeDecode(benchmark::State& state) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  replication::Message msg;
  msg.type = replication::MsgType::Response;
  msg.request_id = {"client", 42};
  msg.payload = Bytes(256, 0x11);
  replication::sign_message(msg, key);
  for (auto _ : state) {
    Bytes wire = msg.encode();
    auto decoded = replication::Message::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_MessageEncodeDecode);

void BM_SignVerify(benchmark::State& state) {
  crypto::KeyRegistry registry(1);
  crypto::SigningKey key = registry.enroll("server-0");
  replication::Message msg;
  msg.payload = Bytes(256, 0x22);
  for (auto _ : state) {
    replication::sign_message(msg, key);
    benchmark::DoNotOptimize(replication::verify_message(msg, registry));
  }
}
BENCHMARK(BM_SignVerify);

void BM_MarkovChainSolve(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  p.period = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::expected_lifetime_markov(model::SystemShape::s2(), p));
  }
}
BENCHMARK(BM_MarkovChainSolve)->Arg(1)->Arg(16)->Arg(128);

void BM_LifetimeTrialSo(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-4;
  p.kappa = 0.5;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::simulate_lifetime(
        model::SystemShape::s2(), p, model::Obfuscation::StartupOnly,
        model::Granularity::Step, rng, 1ull << 40));
  }
}
BENCHMARK(BM_LifetimeTrialSo);

void BM_LifetimeTrialPoProbe(benchmark::State& state) {
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::simulate_lifetime(
        model::SystemShape::s2(), p, model::Obfuscation::Proactive,
        model::Granularity::Probe, rng, 1ull << 40));
  }
}
BENCHMARK(BM_LifetimeTrialPoProbe);

void BM_McEstimateLifetime(benchmark::State& state) {
  // End-to-end Monte-Carlo engine throughput (trials/sec in the items/sec
  // counter): chunked dynamic scheduling + allocation-free trial kernel.
  model::AttackParams p;
  p.alpha = 1e-3;
  p.kappa = 0.5;
  montecarlo::McConfig cfg;
  cfg.trials = 50000;
  cfg.seed = 7;
  cfg.threads = static_cast<unsigned>(state.range(0));
  cfg.max_steps = 1ull << 40;
  for (auto _ : state) {
    benchmark::DoNotOptimize(montecarlo::estimate_lifetime(
        model::SystemShape::s2(), p, model::Obfuscation::Proactive,
        model::Granularity::Step, cfg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.trials));
}
BENCHMARK(BM_McEstimateLifetime)->Arg(1)->Arg(4);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  // A chain of 1000 self-scheduling events, the idiomatic way callbacks are
  // scheduled since the slab/EventFn rework: a plain callable moved into the
  // simulator, no std::function wrapper on the hot path.
  struct Chain {
    sim::Simulator* sim;
    int* count;
    void operator()() const {
      if (++*count < 1000) sim->schedule_after(1.0, Chain{sim, count});
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    sim.schedule_after(1.0, Chain{&sim, &count});
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_SimulatorEventThroughputStdFunction(benchmark::State& state) {
  // Legacy shape of the bench above: the chained handler is copied through a
  // std::function per event, as the pre-slab schedule_at(std::function)
  // signature forced. Kept to show what the EventFn conversion costs when a
  // caller still routes through std::function.
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> chain = [&] {
      if (++count < 1000) sim.schedule_after(1.0, chain);
    };
    sim.schedule_after(1.0, chain);
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_SimulatorEventThroughputStdFunction);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  // Schedule + cancel churn: exercises the slab free list and the O(1)
  // generation-checked cancel with heap tombstone reclamation.
  sim::Simulator sim;
  for (auto _ : state) {
    sim::EventId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = sim.schedule_after(1.0 + i, [] {});
    }
    for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(sim.cancel(ids[i]));
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_RngGeometric(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.geometric(1e-6));
  }
}
BENCHMARK(BM_RngGeometric);

void BM_PoolDispatch(benchmark::State& state) {
  // Round trip of an empty 4-chunk job at parallelism 4 on the shared pool:
  // publish, wake the three invited workers, drain, wait for them. Pure
  // hand-off cost; back-to-back jobs wake workers that have just parked.
  exec::ThreadPool& pool = exec::ThreadPool::shared();
  const auto noop = [](std::uint64_t, std::uint64_t, std::uint64_t) {};
  for (auto _ : state) pool.parallel_chunks(4, 1, 4, noop);
}
BENCHMARK(BM_PoolDispatch);

void BM_PoolAllJoined(benchmark::State& state) {
  // 64 chunks of 2 us busy work at parallelism 4: a job short enough that
  // slow wake-ups leave it to fewer threads. Counters: the share of jobs
  // all 4 slots ran chunks of, and the median time from the call until the
  // 4th slot ran its first chunk over those jobs.
  using Clock = std::chrono::steady_clock;
  exec::ThreadPool& pool = exec::ThreadPool::shared();
  std::vector<double> join_us;
  std::int64_t jobs = 0;
  for (auto _ : state) {
    std::atomic<unsigned> entered_mask{0};
    std::atomic<std::int64_t> all_in_ns{-1};
    const Clock::time_point start = Clock::now();
    pool.parallel_chunks(
        64, 1, 4, [&](std::uint64_t, std::uint64_t, std::uint64_t) {
          const unsigned bit = 1u << (exec::ThreadPool::current_slot() & 31);
          const unsigned before = entered_mask.fetch_or(bit);
          if ((before & bit) == 0 && (before | bit) == 0xFu) {
            all_in_ns.store(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count());
          }
          const Clock::time_point until =
              Clock::now() + std::chrono::microseconds(2);
          while (Clock::now() < until) {
          }
        });
    ++jobs;
    if (all_in_ns.load() >= 0) join_us.push_back(all_in_ns.load() / 1e3);
  }
  state.counters["all_joined_frac"] =
      static_cast<double>(join_us.size()) / static_cast<double>(jobs);
  if (!join_us.empty()) {
    const auto mid =
        join_us.begin() + static_cast<std::ptrdiff_t>(join_us.size() / 2);
    std::nth_element(join_us.begin(), mid, join_us.end());
    state.counters["join_us_p50"] = *mid;
  }
}
BENCHMARK(BM_PoolAllJoined);

template <typename Fn>
double time_ns(int iters, Fn&& fn) {
  fn();  // warm caches / page in the lanes before the timed loop
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
             .count() *
         1e9 / iters;
}

// BenchRecorder-schema crypto records, written next to the google-benchmark
// JSON: unlike that output (informational), these entries are diffed by the
// bench_diff target against bench/baseline.json. Each record carries the
// numeric SHA-256 dispatch tier (0 = scalar, 1 = avx2, 2 = sha-ni) so a
// perf number is always explicable by the kernel that produced it.
bool write_crypto_records(const std::string& path) {
  bench::BenchRecorder rec;
  const double tier =
      static_cast<double>(static_cast<int>(crypto::kernel::active_tier()));
  const bench::BenchRecorder::Extras extras = {{"dispatch_tier", tier}};

  {
    Bytes data(1024, 0xab);
    double ns = time_ns(30000, [&] {
      crypto::Digest d = crypto::Sha256::hash(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.sha256_1k", ns, 1e9 / ns * 1024.0, extras);
  }
  {
    crypto::HmacKey schedule(bytes_of("principal-secret"));
    Bytes data(256, 0x5c);
    double ns = time_ns(30000, [&] {
      crypto::Digest d = schedule.mac(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.hmac_sign", ns, 1e9 / ns, extras);
  }
  {
    // One 96-byte message MACed over and over: after the first call every
    // mac() is a per-thread memo hit (hmac.hpp).
    crypto::HmacKey schedule(bytes_of("principal-secret"));
    Bytes data(96, 0x5c);
    double ns = time_ns(30000, [&] {
      crypto::Digest d = schedule.mac(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.hmac_memo_hit", ns, 1e9 / ns, extras);
  }
  {
    // 96-byte messages that are all distinct (a counter in the first eight
    // bytes): every mac() misses the memo and computes the MAC.
    crypto::HmacKey schedule(bytes_of("principal-secret"));
    Bytes data(96, 0x5c);
    std::uint64_t counter = 0;
    double ns = time_ns(30000, [&] {
      ++counter;
      std::memcpy(data.data(), &counter, sizeof(counter));
      crypto::Digest d = schedule.mac(data);
      benchmark::DoNotOptimize(d);
    });
    rec.add("micro.hmac_miss", ns, 1e9 / ns, extras);
  }
  {
    // Eight (schedule, message, tag) triples verified through one full lane
    // group — the shape the machine's staging plane flushes.
    crypto::HmacKey schedule(bytes_of("principal-secret"));
    std::vector<Bytes> msgs;
    std::vector<crypto::Digest> tags;
    for (int i = 0; i < 8; ++i) {
      msgs.emplace_back(256, static_cast<std::uint8_t>(0x20 + i));
      tags.push_back(schedule.mac(msgs.back()));
    }
    crypto::BatchVerifier batch;
    double ns = time_ns(10000, [&] {
      batch.clear();
      for (int i = 0; i < 8; ++i) {
        batch.enqueue(&schedule, msgs[static_cast<std::size_t>(i)],
                      BytesView(tags[static_cast<std::size_t>(i)].data(),
                                tags[static_cast<std::size_t>(i)].size()));
      }
      batch.flush();
      for (std::size_t i = 0; i < 8; ++i) {
        benchmark::DoNotOptimize(batch.verdict(i));
      }
    });
    rec.add("micro.verify_batch8", ns, 1e9 / ns * 8.0, extras);
  }
  return rec.write_json(path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Everything google-benchmark did not consume is the BenchRecorder output
  // path for the gated crypto records.
  const std::string out =
      argc > 1 ? argv[argc - 1] : "BENCH_micro_crypto.json";
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return write_crypto_records(out) ? 0 : 1;
}
