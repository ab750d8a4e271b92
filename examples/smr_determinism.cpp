// smr_determinism — the paper's §1 motivation, executable.
//
// SMR requires the replicated service to be a deterministic state machine
// (DSM): every replica re-executes every request and correct replicas must
// produce identical results. Primary-backup replication has no such
// requirement: only the primary executes; backups receive state.
//
// This example replicates a NON-deterministic service (random session
// tokens) three ways:
//   1. on primary-backup (S1): works — backups adopt the primary's state;
//   2. on SMR (S0) legitimately: the library REJECTS it at compile time
//      (SmrReplica only accepts DeterministicService);
//   3. on SMR with the determinism claim faked: replicas diverge, the
//      client's f+1 matching-vote rule never completes, and the request
//      times out — the type system was protecting real safety.
//
//   $ ./smr_determinism
#include <cstdio>
#include <memory>

#include "core/live_system.hpp"
#include "replication/service.hpp"

using namespace fortress;

namespace {

/// A wrapper that (falsely) claims SessionTokenService is deterministic —
/// the kind of shortcut §1 warns against when "identifying and handling
/// every source of nondeterminism at each level" is skipped.
class FalselyDeterministicTokenService final
    : public replication::DeterministicService {
 public:
  explicit FalselyDeterministicTokenService(std::uint64_t seed)
      : inner_(seed) {}

  Bytes execute(BytesView request) override { return inner_.execute(request); }
  void append_snapshot(Bytes& out) const override {
    inner_.append_snapshot(out);
  }
  void restore(BytesView snapshot) override { inner_.restore(snapshot); }

 private:
  replication::SessionTokenService inner_;
};

constexpr std::uint64_t kSeed = 77;

net::ScenarioPlan plan() {
  net::ScenarioPlan p;
  p.keyspace = 1 << 12;
  p.rerandomize = true;
  p.step_duration = 5000.0;
  return p;
}

}  // namespace

int main() {
  std::printf("The DSM requirement, demonstrated (paper §1)\n\n");

  // --- 1. Non-deterministic service on primary-backup: fine. -------------
  {
    sim::Simulator sim;
    core::LiveS1 pb(sim, plan(), kSeed, [](std::uint32_t index) {
      return std::make_unique<replication::SessionTokenService>(100 + index);
    });
    pb.start();
    core::Client client(sim, pb.network(), pb.registry(), pb.directory(),
                        core::ClientConfig{"client"});
    std::string reply;
    client.submit(bytes_of("TOKEN alice"), [&](std::uint64_t, const Bytes& r) {
      reply = string_of(r);
    });
    sim.run_until(100.0);
    std::printf("[1] primary-backup + non-deterministic service:\n");
    std::printf("    TOKEN alice -> %s\n", reply.c_str());
    std::printf("    (backups adopted the primary's state; all three "
                "replicas agree on this token)\n\n");
  }

  // --- 2. The same service on SMR: rejected at compile time. -------------
  std::printf("[2] SMR + non-deterministic service: does not compile.\n");
  std::printf("    SmrReplica's constructor takes "
              "unique_ptr<DeterministicService>;\n"
              "    SessionTokenService is deliberately NOT a "
              "DeterministicService.\n");
  std::printf("    // core::LiveS0 smr(sim, cfg, [](std::uint32_t i) {\n"
              "    //   return std::make_unique<SessionTokenService>(i); "
              "});  <- type error\n\n");

  // --- 3. Faking the determinism claim: divergence, caught by voting. ----
  {
    sim::Simulator sim;
    core::LiveS0 smr(sim, plan(), kSeed, [](std::uint32_t index) {
      // Different per-replica seeds, as different machines would have.
      return std::make_unique<FalselyDeterministicTokenService>(200 + index);
    });
    smr.start();
    core::ClientConfig ccfg;
    ccfg.address = "client";
    ccfg.retry_interval = 30.0;
    ccfg.deadline = 400.0;
    core::Client client(sim, smr.network(), smr.registry(), smr.directory(),
                        ccfg);
    std::string reply = "<pending>";
    bool timed_out = false;
    client.submit(
        bytes_of("TOKEN alice"),
        [&](std::uint64_t, const Bytes& r) { reply = string_of(r); },
        [&](std::uint64_t, core::RequestOutcome) { timed_out = true; });
    sim.run_until(600.0);

    std::printf("[3] SMR with the determinism claim faked:\n");
    std::printf("    all four replicas executed the request and minted "
                "FOUR different tokens;\n");
    std::printf("    the client needs f+1 = 2 MATCHING signed responses "
                "and saw %llu mismatching ones\n",
                static_cast<unsigned long long>(
                    client.stats().rejected_responses));
    std::printf("    result: %s\n",
                timed_out ? "request timed out (no agreement)"
                          : ("UNEXPECTED: " + reply).c_str());
    std::printf("    -> the replicas' states have silently diverged; this "
                "deployment is broken.\n\n");
  }

  // --- 4. A genuinely deterministic service on SMR: fine. ----------------
  {
    sim::Simulator sim;
    core::LiveS0 smr(sim, plan(), kSeed, [](std::uint32_t) {
      return std::make_unique<replication::KvService>();
    });
    smr.start();
    core::Client client(sim, smr.network(), smr.registry(), smr.directory(),
                        core::ClientConfig{"client"});
    std::string reply;
    client.submit(bytes_of("PUT x 1"), [&](std::uint64_t, const Bytes& r) {
      reply = string_of(r);
    });
    sim.run_until(200.0);
    std::printf("[4] SMR + deterministic KV service: PUT x 1 -> %s "
                "(f+1 matching votes collected)\n\n", reply.c_str());
  }

  std::printf("Conclusion: if DSM compliance is costly or infeasible, "
              "FORTRESS (proxies + proactive obfuscation over PB) is the "
              "way to add intrusion resilience — the paper's bottom line "
              "(§7).\n");
  return 0;
}
