#include "osl/obfuscation.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/check.hpp"
#include "net/network.hpp"

namespace fortress::osl {
namespace {

class ObfuscationTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kChi = 1 << 10;

  ObfuscationTest()
      : net_(sim_, {.latency = net::LatencySpec::fixed(0.1)}) {
    for (int i = 0; i < 3; ++i) {
      proxies_.push_back(std::make_unique<Machine>(
          net_, MachineConfig{"proxy-" + std::to_string(i), kChi}));
      servers_.push_back(std::make_unique<Machine>(
          net_, MachineConfig{"server-" + std::to_string(i), kChi}));
    }
  }

  ObfuscationConfig config(ObfuscationPolicy policy, std::uint32_t period = 1) {
    ObfuscationConfig cfg;
    cfg.step_duration = 10.0;
    cfg.policy = policy;
    cfg.keyspace = kChi;
    cfg.period = period;
    return cfg;
  }

  void register_all(ObfuscationScheduler& sched) {
    for (auto& p : proxies_) sched.add_machine(*p);
    std::vector<Machine*> group;
    for (auto& s : servers_) group.push_back(s.get());
    sched.add_shared_group(std::move(group));
  }

  sim::Simulator sim_;
  net::Network net_;
  std::vector<std::unique_ptr<Machine>> proxies_;
  std::vector<std::unique_ptr<Machine>> servers_;
};

TEST_F(ObfuscationTest, BootAssignsDistinctKeysWithSharedGroup) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Rerandomize));
  register_all(sched);
  sched.boot_all();

  // Servers share one key.
  EXPECT_EQ(servers_[0]->key(), servers_[1]->key());
  EXPECT_EQ(servers_[1]->key(), servers_[2]->key());

  // Proxies' keys are distinct from each other and from the server key.
  std::set<RandKey> keys;
  for (auto& p : proxies_) keys.insert(p->key());
  keys.insert(servers_[0]->key());
  EXPECT_EQ(keys.size(), 4u);  // np + 1 keys in use (paper §3)

  for (auto& p : proxies_) EXPECT_TRUE(p->booted());
  for (auto& s : servers_) EXPECT_TRUE(s->booted());
}

TEST_F(ObfuscationTest, RerandomizeChangesKeysEachStep) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Rerandomize));
  register_all(sched);
  sched.boot_all();
  sched.start();

  RandKey server_key_0 = servers_[0]->key();
  sim_.run_until(10.0);  // one step boundary
  EXPECT_EQ(sched.steps_completed(), 1u);
  // With chi = 1024, a same-key redraw has probability ~1/1024; seeds are
  // fixed so this is deterministic and chosen to differ.
  EXPECT_NE(servers_[0]->key(), server_key_0);
  EXPECT_EQ(servers_[0]->key(), servers_[1]->key());  // group stays shared
}

TEST_F(ObfuscationTest, RecoverKeepsKeys) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  register_all(sched);
  sched.boot_all();
  sched.start();

  std::vector<RandKey> before;
  for (auto& p : proxies_) before.push_back(p->key());
  RandKey server_before = servers_[0]->key();

  sim_.run_until(50.0);  // five steps
  EXPECT_EQ(sched.steps_completed(), 5u);
  for (std::size_t i = 0; i < proxies_.size(); ++i) {
    EXPECT_EQ(proxies_[i]->key(), before[i]);
  }
  EXPECT_EQ(servers_[0]->key(), server_before);
}

TEST_F(ObfuscationTest, StepBoundaryCleansesCompromise) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Rerandomize));
  register_all(sched);
  sched.boot_all();
  sched.start();

  // Compromise a proxy by direct key injection (simulating a hit).
  class Dummy : public net::Handler {
   public:
    void on_message(const net::Envelope&) override {}
  } attacker;
  net_.attach("attacker", attacker);
  net_.send("attacker", proxies_[0]->address(), encode_probe(proxies_[0]->key()));
  sim_.run_until(5.0);
  ASSERT_TRUE(proxies_[0]->compromised());

  sim_.run_until(10.0);  // boundary
  EXPECT_FALSE(proxies_[0]->compromised());
}

TEST_F(ObfuscationTest, PeriodDelaysRerandomization) {
  ObfuscationScheduler sched(sim_,
                             config(ObfuscationPolicy::Rerandomize, 3));
  register_all(sched);
  sched.boot_all();
  sched.start();

  RandKey initial = servers_[0]->key();
  sim_.run_until(10.0);  // step 1: recovery only
  EXPECT_EQ(servers_[0]->key(), initial);
  sim_.run_until(20.0);  // step 2: recovery only
  EXPECT_EQ(servers_[0]->key(), initial);
  sim_.run_until(30.0);  // step 3: re-randomization boundary
  EXPECT_NE(servers_[0]->key(), initial);
}

TEST_F(ObfuscationTest, OnStepCallbackCountsSteps) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  register_all(sched);
  sched.boot_all();
  std::uint64_t last_step = 0;
  sched.on_step = [&](std::uint64_t s) { last_step = s; };
  sched.start();
  sim_.run_until(35.0);
  EXPECT_EQ(last_step, 3u);
}

TEST_F(ObfuscationTest, StopHaltsStepping) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  register_all(sched);
  sched.boot_all();
  sched.start();
  sim_.run_until(20.0);
  sched.stop();
  sim_.run_until(100.0);
  EXPECT_EQ(sched.steps_completed(), 2u);
}

TEST_F(ObfuscationTest, RegistrationAfterBootViolatesContract) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  register_all(sched);
  sched.boot_all();
  Machine extra(net_, MachineConfig{"extra", kChi});
  EXPECT_THROW(sched.add_machine(extra), ContractViolation);
}

TEST_F(ObfuscationTest, StartBeforeBootViolatesContract) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  register_all(sched);
  EXPECT_THROW(sched.start(), ContractViolation);
}

TEST_F(ObfuscationTest, BootWithNothingRegisteredViolatesContract) {
  ObfuscationScheduler sched(sim_, config(ObfuscationPolicy::Recover));
  EXPECT_THROW(sched.boot_all(), ContractViolation);
}

}  // namespace
}  // namespace fortress::osl
