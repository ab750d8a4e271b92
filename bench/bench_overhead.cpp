// bench_overhead — E8: request latency and throughput with and without the
// proxy tier, on the live stack.
//
// §2.2 cites Saidane et al. [9]: "the overhead due to proxies is minimal
// when intrusions are not suspected". We measure client-observed request
// latency and completed-request throughput for S1 (direct) vs S2 (through
// proxies) vs S0 (SMR with f+1 vote collection), no attacker present.
// Expectation: S2 adds roughly two network hops (proxy in, proxy out);
// SMR's ordering round costs more.
#include <cstdio>
#include <memory>

#include "core/live_system.hpp"
#include "replication/service.hpp"

using namespace fortress;

namespace {

struct Load {
  double mean_latency = 0.0;
  std::uint64_t completed = 0;
  double duration = 0.0;

  double throughput() const {
    return duration > 0 ? static_cast<double>(completed) / duration : 0.0;
  }
};

template <typename System>
Load drive(sim::Simulator& sim, System& system, int requests) {
  core::ClientConfig ccfg;
  ccfg.address = "load-client";
  core::Client client(sim, system.network(), system.registry(),
                      system.directory(), ccfg);
  double start = sim.now();
  int done = 0;
  // Closed-loop client: next request on completion of the previous one.
  std::function<void(int)> issue = [&](int i) {
    if (i >= requests) return;
    client.submit(bytes_of("PUT key" + std::to_string(i) + " v"),
                  [&, i](std::uint64_t, const Bytes&) {
                    ++done;
                    issue(i + 1);
                  });
  };
  issue(0);
  double deadline = sim.now() + 100.0 * requests;
  while (done < requests && sim.now() < deadline) {
    sim.run_until(sim.now() + 10.0);
  }
  Load out;
  out.mean_latency = client.mean_latency();
  out.completed = client.stats().completed;
  out.duration = sim.now() - start;
  return out;
}

constexpr std::uint64_t kSeed = 3;

/// S2 detection on (blacklisting, threshold 5); no attack comes to trip it.
net::ScenarioPlan quiet_plan() {
  net::ScenarioPlan plan;
  plan.keyspace = 1 << 16;
  plan.step_duration = 10000.0;  // no reboot during the measurement window
  plan.latency = net::LatencySpec::uniform(0.4, 0.6);  // ~0.5 per hop
  plan.proxy_blacklist = true;
  plan.detection_threshold = 5;
  return plan;
}

}  // namespace

int main() {
  constexpr int kRequests = 300;

  sim::Simulator sim1;
  core::LiveS1 s1(sim1, quiet_plan(), kSeed, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  s1.start();
  Load l1 = drive(sim1, s1, kRequests);

  sim::Simulator sim2;
  core::LiveS2 s2(sim2, quiet_plan(), kSeed, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  s2.start();
  sim2.run_until(5.0);
  Load l2 = drive(sim2, s2, kRequests);

  sim::Simulator sim0;
  core::LiveS0 s0(sim0, quiet_plan(), kSeed, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  s0.start();
  Load l0 = drive(sim0, s0, kRequests);

  std::printf("E8: proxy-tier overhead, no attack in progress "
              "(%d closed-loop requests, ~0.5 time units per hop)\n\n",
              kRequests);
  std::printf("%22s %12s %12s %14s\n", "system", "completed", "latency",
              "throughput");
  for (int i = 0; i < 64; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("%22s %12llu %12.2f %14.4f\n", "S1 (PB, direct)",
              static_cast<unsigned long long>(l1.completed), l1.mean_latency,
              l1.throughput());
  std::printf("%22s %12llu %12.2f %14.4f\n", "S2 (FORTRESS, proxied)",
              static_cast<unsigned long long>(l2.completed), l2.mean_latency,
              l2.throughput());
  std::printf("%22s %12llu %12.2f %14.4f\n", "S0 (SMR, f+1 votes)",
              static_cast<unsigned long long>(l0.completed), l0.mean_latency,
              l0.throughput());
  for (int i = 0; i < 64; ++i) std::putchar('-');
  std::putchar('\n');

  double proxy_overhead = l2.mean_latency - l1.mean_latency;
  std::printf("\nProxy-tier latency overhead: %.2f time units (~%.1f hops at "
              "0.5/hop)\n", proxy_overhead, proxy_overhead / 0.5);
  bool all_completed = l1.completed == kRequests &&
                       l2.completed == kRequests && l0.completed == kRequests;
  bool modest = proxy_overhead > 0.0 && proxy_overhead < 4.0 * 0.5 + 0.5;
  std::printf("All workloads completed:                      %s\n",
              all_completed ? "PASS" : "FAIL");
  std::printf("Proxy overhead is a small constant (few hops): %s\n",
              modest ? "PASS" : "FAIL");
  return (all_completed && modest) ? 0 : 1;
}
