// quickstart — assemble a live FORTRESS (S2) deployment, run a replicated
// key-value workload through the proxy tier, demonstrate double-signature
// validation, non-deterministic service support and primary failover.
//
//   $ ./quickstart
//
// Everything runs on the deterministic discrete-event simulator; "time" is
// virtual. See DESIGN.md for the architecture.
#include <cstdio>
#include <memory>

#include "core/live_system.hpp"
#include "replication/service.hpp"

using namespace fortress;

namespace {

/// Run `cmd` through the client and print the reply (blocking the virtual
/// clock until it arrives).
std::string call(sim::Simulator& sim, core::Client& client,
                 const std::string& cmd) {
  std::string reply = "<no reply>";
  bool done = false;
  client.submit(bytes_of(cmd), [&](std::uint64_t, const Bytes& resp) {
    reply = string_of(resp);
    done = true;
  });
  sim::Time deadline = sim.now() + 200.0;
  while (!done && sim.now() < deadline) sim.run_until(sim.now() + 1.0);
  std::printf("  client> %-24s  ->  %s\n", cmd.c_str(), reply.c_str());
  return reply;
}

}  // namespace

int main() {
  std::printf("FORTRESS quickstart: 3 proxies fronting a 3-replica "
              "primary-backup service\n\n");

  sim::Simulator sim;
  net::ScenarioPlan plan;
  plan.keyspace = 1ull << 16;     // chi = 2^16
  plan.rerandomize = true;        // proactive obfuscation
  plan.step_duration = 500.0;     // unit time-step
  plan.proxy_blacklist = true;    // proxies blacklist a source once it has
  plan.detection_threshold = 5;   // 5 suspicious events in the window

  // The replicated service may be non-deterministic: SessionTokenService
  // mints random tokens, which primary-backup replication handles by
  // shipping state (SMR could not re-execute this service).
  core::LiveS2 fortress(sim, plan, /*seed=*/1, [](std::uint32_t index) {
    return std::make_unique<replication::SessionTokenService>(7000 + index);
  });
  fortress.start();
  sim.run_until(5.0);  // proxies dial the hidden server tier

  std::printf("Deployment:\n");
  std::printf("  proxies: ");
  for (const auto& p : fortress.directory().proxies) std::printf("%s ", p.c_str());
  std::printf("\n  servers: hidden behind proxies (%zu principals known "
              "to clients)\n",
              fortress.directory().server_principals.size());
  std::printf("  server tier shares one randomization key; proxies have "
              "distinct keys (np+1 = 4 keys live)\n\n");

  core::Client client(sim, fortress.network(), fortress.registry(),
                      fortress.directory(), core::ClientConfig{"client-1"});

  std::printf("Issuing requests through the proxy tier (every reply is "
              "doubly signed: server + proxy):\n");
  std::string minted = call(sim, client, "TOKEN alice");
  std::string token = minted.size() > 6 ? minted.substr(6) : "";
  call(sim, client, "CHECK alice " + token);
  call(sim, client, "TOKEN bob");
  call(sim, client, "GET alice");

  std::printf("\nCrashing the primary server; the backup takes over with "
              "the replicated state:\n");
  fortress.server_machine(0).shutdown();
  sim.run_until(sim.now() + 60.0);  // failure detection + view change
  call(sim, client, "CHECK alice " + token);
  call(sim, client, "TOKEN carol");

  std::printf("\nCrossing a proactive-obfuscation boundary (all nodes "
              "re-randomized):\n");
  sim.run_until(sim.now() + plan.step_duration);
  std::printf("  steps completed: %llu\n",
              static_cast<unsigned long long>(fortress.steps_completed()));
  call(sim, client, "CHECK alice " + token);

  std::printf("\nClient stats: %llu submitted, %llu completed, %llu "
              "retries, mean latency %.2f time units\n",
              static_cast<unsigned long long>(client.stats().submitted),
              static_cast<unsigned long long>(client.stats().completed),
              static_cast<unsigned long long>(client.stats().retries),
              client.mean_latency());
  std::printf("System compromised: %s\n", fortress.failed() ? "YES" : "no");
  return 0;
}
