#include "replication/smr_replica.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::replication {
namespace {

class TestClient : public net::Handler {
 public:
  TestClient(net::Network& net, net::Address addr)
      : net_(net), addr_(std::move(addr)) {
    net_.attach(addr_, *this);
  }
  ~TestClient() override { net_.detach(addr_); }

  void on_message(const net::Envelope& env) override {
    auto msg = Message::decode(env.payload);
    if (msg && msg->type == MsgType::Response) responses.push_back(*msg);
  }

  void send_request(const RequestId& rid, const std::string& body,
                    const std::vector<net::Address>& servers) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = rid;
    msg.requester = addr_;
    msg.payload = bytes_of(body);
    for (const auto& s : servers) net_.send(addr_, s, msg.encode());
  }

  std::set<std::uint32_t> responders(const RequestId& rid,
                                     const std::string& body) const {
    std::set<std::uint32_t> out;
    for (const auto& r : responses) {
      if (r.request_id == rid && string_of(r.payload) == body) {
        out.insert(r.sender_index);
      }
    }
    return out;
  }

  std::vector<Message> responses;

 private:
  net::Network& net_;
  net::Address addr_;
};

class SmrTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kF = 1;
  static constexpr std::uint32_t kN = 3 * kF + 1;

  SmrTest()
      : net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}),
        client_(net_, "client") {
    for (std::uint32_t i = 0; i < kN; ++i) {
      addrs_.push_back("replica-" + std::to_string(i));
    }
    SmrConfig cfg;
    cfg.f = kF;
    cfg.replicas = addrs_;
    cfg.progress_timeout = 30.0;
    cfg.heartbeat_interval = 5.0;
    for (std::uint32_t i = 0; i < kN; ++i) {
      machines_.push_back(std::make_unique<osl::Machine>(
          net_, osl::MachineConfig{addrs_[i], 1 << 10}));
      cfg.index = i;
      replicas_.push_back(std::make_unique<SmrReplica>(
          sim_, net_, registry_, std::make_unique<KvService>(), cfg));
      machines_.back()->set_application(replicas_.back().get());
    }
  }

  void boot_and_start() {
    for (std::uint32_t i = 0; i < kN; ++i) {
      machines_[i]->boot(i);
      replicas_[i]->start();
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{321};
  std::vector<net::Address> addrs_;
  std::vector<std::unique_ptr<osl::Machine>> machines_;
  std::vector<std::unique_ptr<SmrReplica>> replicas_;
  TestClient client_;
};

TEST_F(SmrTest, AllReplicasExecuteAndAgree) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  // Correct SMR replicas all execute and return identical responses.
  EXPECT_EQ(client_.responders(rid, "OK").size(), 4u);
  for (const auto& r : replicas_) EXPECT_EQ(r->executed_seq(), 1u);
}

TEST_F(SmrTest, ResponsesAreSigned) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  ASSERT_FALSE(client_.responses.empty());
  for (const auto& r : client_.responses) {
    EXPECT_TRUE(verify_message(r, registry_));
  }
}

TEST_F(SmrTest, ConcurrentRequestsExecuteInSameOrderEverywhere) {
  boot_and_start();
  // Two clients race PUTs to the same key; all replicas must order them the
  // same way, whatever that order is.
  TestClient other(net_, "client2");
  client_.send_request({"client", 1}, "PUT k from-c1", addrs_);
  other.send_request({"client2", 1}, "PUT k from-c2", addrs_);
  sim_.run_until(60.0);
  client_.send_request({"client", 2}, "GET k", addrs_);
  sim_.run_until(120.0);
  // All four replicas agree on the final value.
  auto c1 = client_.responders({"client", 2}, "VALUE from-c1");
  auto c2 = client_.responders({"client", 2}, "VALUE from-c2");
  EXPECT_TRUE(c1.size() == 4u || c2.size() == 4u)
      << "c1=" << c1.size() << " c2=" << c2.size();
}

TEST_F(SmrTest, DedupAcrossRetries) {
  boot_and_start();
  RequestId rid{"client", 1};
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  client_.send_request(rid, "PUT a 1", addrs_);
  sim_.run_until(80.0);
  for (const auto& r : replicas_) EXPECT_EQ(r->executed_seq(), 1u);
}

TEST_F(SmrTest, LeaderCrashTriggersViewChangeAndReproposal) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);

  machines_[0]->shutdown();  // leader of view 0 dies
  // New request arrives while the leader is dead.
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(300.0);

  // Survivors moved past view 0 and executed the request.
  for (std::uint32_t i = 1; i < kN; ++i) {
    EXPECT_GT(replicas_[i]->view(), 0u) << "replica " << i;
    EXPECT_EQ(replicas_[i]->executed_seq(), 2u) << "replica " << i;
  }
  EXPECT_GE(client_.responders({"client", 2}, "OK").size(), 3u);
}

TEST_F(SmrTest, RebootedReplicaRestoresStateFromQuorum) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  client_.send_request({"client", 2}, "PUT b 2", addrs_);
  sim_.run_until(60.0);
  ASSERT_EQ(replicas_[3]->executed_seq(), 2u);

  machines_[3]->rerandomize(9);  // proactive obfuscation reboot
  EXPECT_TRUE(replicas_[3]->state_stale());
  sim_.run_until(120.0);
  // f+1 matching offers arrived; replica 3 is live again at seq 2.
  EXPECT_FALSE(replicas_[3]->state_stale());
  EXPECT_EQ(replicas_[3]->executed_seq(), 2u);
}

TEST_F(SmrTest, StaleReplicaDoesNotServeRequests) {
  boot_and_start();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(40.0);
  machines_[3]->rerandomize(9);
  ASSERT_TRUE(replicas_[3]->state_stale());
  // While stale it neither acks proposals nor answers clients; a quorum of
  // the remaining three still commits new work.
  client_.send_request({"client", 2}, "PUT c 3", addrs_);
  sim_.run_until(200.0);
  EXPECT_GE(client_.responders({"client", 2}, "OK").size(), 3u);
}

TEST_F(SmrTest, QuorumLossStallsThenRecovers) {
  boot_and_start();
  // Take down two replicas: 2f+1 = 3 acks are impossible with only 2 left.
  machines_[2]->shutdown();
  machines_[3]->shutdown();
  client_.send_request({"client", 1}, "PUT a 1", addrs_);
  sim_.run_until(150.0);
  EXPECT_EQ(client_.responders({"client", 1}, "OK").size(), 0u);
  EXPECT_EQ(replicas_[0]->executed_seq(), 0u);
}

TEST_F(SmrTest, RequiresFourReplicasForFOne) {
  SmrConfig bad;
  bad.f = 1;
  bad.replicas = {"a", "b", "c"};  // only 3
  bad.index = 0;
  EXPECT_THROW(SmrReplica(sim_, net_, registry_,
                          std::make_unique<KvService>(), bad),
               ContractViolation);
}

}  // namespace
}  // namespace fortress::smr_test_adl_guard
