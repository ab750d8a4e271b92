// End-to-end tests of the assembled live deployments: request round-trips
// through every system class, failover, obfuscation clocking and the
// class-specific compromise predicates.
#include "core/live_system.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>

#include "osl/probe.hpp"
#include "replication/service.hpp"

namespace fortress::core {
namespace {

constexpr std::uint64_t kSeed = 42;

/// PO deployments with S2 detection on (blacklisting, threshold 5).
net::ScenarioPlan test_plan() {
  net::ScenarioPlan plan;
  plan.keyspace = 1 << 10;
  plan.step_duration = 200.0;
  plan.latency = net::LatencySpec::uniform(0.1, 0.3);
  plan.proxy_blacklist = true;
  plan.detection_threshold = 5;
  return plan;
}

ServiceFactory kv_factory() {
  return [](std::uint32_t) { return std::make_unique<replication::KvService>(); };
}

DeterministicServiceFactory det_kv_factory() {
  return [](std::uint32_t) { return std::make_unique<replication::KvService>(); };
}

std::vector<std::string> collect_responses(sim::Simulator& sim, Client& client,
                                           const std::vector<std::string>& cmds,
                                           sim::Time budget_per_cmd = 60.0) {
  std::vector<std::string> out;
  for (const std::string& cmd : cmds) {
    bool done = false;
    client.submit(bytes_of(cmd), [&](std::uint64_t, const Bytes& resp) {
      out.push_back(string_of(resp));
      done = true;
    });
    sim::Time deadline = sim.now() + budget_per_cmd;
    while (!done && sim.now() < deadline) {
      sim.run_until(sim.now() + 1.0);
    }
    if (!done) out.push_back("<timeout>");
  }
  return out;
}

TEST(LiveS1Test, EndToEndRequests) {
  sim::Simulator sim;
  LiveS1 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(
      sim, client, {"PUT a 1", "GET a", "DEL a", "GET a"});
  EXPECT_EQ(replies,
            (std::vector<std::string>{"OK", "VALUE 1", "OK", "NOTFOUND"}));
  EXPECT_EQ(client.stats().completed, 4u);
}

TEST(LiveS1Test, SurvivesObfuscationBoundaries) {
  sim::Simulator sim;
  net::ScenarioPlan plan = test_plan();
  plan.step_duration = 50.0;  // several reboots during the workload
  LiveS1 system(sim, plan, kSeed, kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto before = collect_responses(sim, client, {"PUT a 1", "PUT b 2"}, 120.0);
  EXPECT_EQ(before, (std::vector<std::string>{"OK", "OK"}));
  // Cross several re-randomization boundaries, then read the state back.
  sim.run_until(sim.now() + 3.5 * plan.step_duration);
  EXPECT_GE(system.steps_completed(), 3u);
  auto after = collect_responses(sim, client, {"GET a", "GET b"}, 120.0);
  EXPECT_EQ(after, (std::vector<std::string>{"VALUE 1", "VALUE 2"}));
}

TEST(LiveS1Test, CompromisePredicateIsAnyServer) {
  sim::Simulator sim;
  LiveS1 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  EXPECT_FALSE(system.failed());
  // Inject a correct probe at one backup.
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  system.network().attach("attacker", attacker);
  system.network().send("attacker", system.server_machine(2).address(),
                        osl::encode_probe(system.server_machine(2).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
  ASSERT_TRUE(system.failure_step().has_value());
  EXPECT_EQ(*system.failure_step(), 0u);
}

TEST(LiveS0Test, EndToEndRequestsWithVoting) {
  sim::Simulator sim;
  LiveS0 system(sim, test_plan(), kSeed, det_kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(sim, client, {"PUT a 1", "GET a"}, 120.0);
  EXPECT_EQ(replies, (std::vector<std::string>{"OK", "VALUE 1"}));
}

TEST(LiveS0Test, CompromiseNeedsTwoReplicas) {
  sim::Simulator sim;
  LiveS0 system(sim, test_plan(), kSeed, det_kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  system.network().attach("attacker", attacker);

  system.network().send("attacker", system.server_machine(1).address(),
                        osl::encode_probe(system.server_machine(1).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(system.currently_compromised(), 1);
  EXPECT_FALSE(system.failed());  // Definition 1: needs MORE than one

  system.network().send("attacker", system.server_machine(3).address(),
                        osl::encode_probe(system.server_machine(3).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

TEST(LiveS0Test, StaggeredRecoveryKeepsServiceAvailable) {
  sim::Simulator sim;
  net::ScenarioPlan plan = test_plan();
  plan.step_duration = 100.0;
  LiveS0 system(sim, plan, kSeed, det_kv_factory());
  system.start();
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  // Spread requests across several obfuscation steps; the staggered batches
  // mean at most one replica is mid-state-transfer at a time.
  std::vector<std::string> replies;
  for (int i = 0; i < 6; ++i) {
    auto r = collect_responses(
        sim, client, {"PUT k" + std::to_string(i) + " v"}, 150.0);
    replies.push_back(r[0]);
    sim.run_until(sim.now() + 0.7 * plan.step_duration);
  }
  for (const auto& r : replies) EXPECT_EQ(r, "OK");
  EXPECT_GE(system.steps_completed(), 3u);
}

TEST(LiveS2Test, EndToEndThroughProxies) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  sim.run_until(5.0);  // proxies dial the servers
  Client client(sim, system.network(), system.registry(), system.directory(),
                ClientConfig{"client"});
  auto replies = collect_responses(sim, client, {"PUT a 1", "GET a"});
  EXPECT_EQ(replies, (std::vector<std::string>{"OK", "VALUE 1"}));
}

TEST(LiveS2Test, DirectoryHidesServerAddresses) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  EXPECT_TRUE(system.directory().fortified());
  EXPECT_TRUE(system.directory().server_addrs.empty());
  EXPECT_EQ(system.directory().proxies.size(), 3u);
  EXPECT_EQ(system.directory().server_principals.size(), 3u);
}

TEST(LiveS2Test, CompromisePredicateServerOrAllProxies) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  system.network().attach("attacker", attacker);

  // Two of three proxies: not compromised yet.
  for (int i = 0; i < 2; ++i) {
    system.network().send("attacker", system.proxy_machine(i).address(),
                          osl::encode_probe(system.proxy_machine(i).key()));
  }
  sim.run_until(sim.now() + 5.0);
  EXPECT_EQ(system.currently_compromised_proxies(), 2);
  EXPECT_FALSE(system.failed());

  // Third proxy: all proxies fallen -> system compromised.
  system.network().send("attacker", system.proxy_machine(2).address(),
                        osl::encode_probe(system.proxy_machine(2).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

TEST(LiveS2Test, ServerCompromiseAloneFailsSystem) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  system.network().attach("attacker", attacker);
  system.network().send("attacker", system.server_machine(0).address(),
                        osl::encode_probe(system.server_machine(0).key()));
  sim.run_until(sim.now() + 5.0);
  EXPECT_TRUE(system.failed());
}

TEST(LiveS2Test, ProxyCompromiseCleansedByRerandomization) {
  sim::Simulator sim;
  net::ScenarioPlan plan = test_plan();
  plan.step_duration = 50.0;
  LiveS2 system(sim, plan, kSeed, kv_factory());
  system.start();
  class Probe : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  system.network().attach("attacker", attacker);
  system.network().send("attacker", system.proxy_machine(0).address(),
                        osl::encode_probe(system.proxy_machine(0).key()));
  sim.run_until(sim.now() + 5.0);
  ASSERT_TRUE(system.proxy_machine(0).compromised());
  sim.run_until(60.0);  // past the step boundary
  EXPECT_FALSE(system.proxy_machine(0).compromised());
  EXPECT_FALSE(system.failed());
}

TEST(LiveS2Test, SharedServerKeyDistinctProxyKeys) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  system.start();
  EXPECT_EQ(system.server_machine(0).key(), system.server_machine(1).key());
  EXPECT_EQ(system.server_machine(1).key(), system.server_machine(2).key());
  std::set<osl::RandKey> keys;
  for (int i = 0; i < 3; ++i) keys.insert(system.proxy_machine(i).key());
  keys.insert(system.server_machine(0).key());
  EXPECT_EQ(keys.size(), 4u);  // np + 1 distinct keys (§3)
}

TEST(NameServerTest, ServesSignedDirectory) {
  sim::Simulator sim;
  LiveS2 system(sim, test_plan(), kSeed, kv_factory());
  system.start();

  class Lookup : public net::Handler {
   public:
    void on_message(const net::Envelope& env) override {
      auto msg = replication::Message::decode(env.payload);
      if (msg && msg->type == replication::MsgType::NsReply) reply = *msg;
    }
    std::optional<replication::Message> reply;
  } lookup;
  system.network().attach("prospective-client", lookup);

  replication::Message req;
  req.type = replication::MsgType::NsLookup;
  system.network().send("prospective-client", kNameServerAddress,
                        req.encode());
  sim.run_until(sim.now() + 5.0);

  ASSERT_TRUE(lookup.reply.has_value());
  EXPECT_TRUE(replication::verify_message(*lookup.reply, system.registry()));
  auto dir = Directory::decode(lookup.reply->aux);
  ASSERT_TRUE(dir.has_value());
  EXPECT_EQ(*dir, system.directory());
}

}  // namespace
}  // namespace fortress::core
