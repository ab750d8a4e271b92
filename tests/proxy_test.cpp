#include "proxy/proxy_node.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/probe.hpp"
#include "proxy/probe_log.hpp"
#include "replication/pb_replica.hpp"
#include "replication/service.hpp"
#include "sim/simulator.hpp"

namespace fortress::proxy {
namespace {

using replication::Message;
using replication::MsgType;
using replication::RequestId;

class ClientEndpoint : public net::Handler {
 public:
  ClientEndpoint(net::Network& net, net::Address addr)
      : net_(net), addr_(std::move(addr)) {
    net_.attach(addr_, *this);
  }
  ~ClientEndpoint() override { net_.detach(addr_); }

  void on_message(const net::Envelope& env) override {
    auto msg = Message::decode(env.payload);
    if (msg) responses.push_back(*msg);
  }

  void send_request(const RequestId& rid, const std::string& body,
                    const net::Address& proxy) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = rid;
    msg.requester = addr_;
    msg.payload = bytes_of(body);
    net_.send(addr_, proxy, msg.encode());
  }

  std::vector<Message> responses;
  const net::Address& address() const { return addr_; }

 private:
  net::Network& net_;
  net::Address addr_;
};

// Full slice: one proxy in front of a 3-replica PB tier.
class ProxyTest : public ::testing::Test {
 protected:
  ProxyTest() : net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}) {
    for (int i = 0; i < 3; ++i) {
      server_addrs_.push_back("server-" + std::to_string(i));
    }
    replication::PbConfig pb;
    pb.replicas = server_addrs_;
    for (int i = 0; i < 3; ++i) {
      server_machines_.push_back(std::make_unique<osl::Machine>(
          net_, osl::MachineConfig{server_addrs_[static_cast<std::size_t>(i)],
                                   kChi}));
      pb.index = static_cast<std::uint32_t>(i);
      replicas_.push_back(std::make_unique<replication::PbReplica>(
          sim_, net_, registry_, std::make_unique<replication::KvService>(),
          pb));
      server_machines_.back()->set_application(replicas_.back().get());
    }
    ProxyConfig cfg;
    cfg.address = "proxy-0";
    cfg.servers = server_addrs_;
    cfg.detection.window = 100.0;
    cfg.detection.threshold = 3;
    osl::MachineConfig mc{"proxy-0", kChi};
    mc.processes_request_payloads = false;  // proxies do no processing
    proxy_machine_ = std::make_unique<osl::Machine>(net_, mc);
    proxy_ = std::make_unique<ProxyNode>(sim_, net_, registry_, cfg);
    proxy_machine_->set_application(proxy_.get());
  }

  void boot_and_start() {
    for (int i = 0; i < 3; ++i) {
      server_machines_[static_cast<std::size_t>(i)]->boot(
          static_cast<osl::RandKey>(10));  // shared server key
      replicas_[static_cast<std::size_t>(i)]->start();
    }
    proxy_machine_->boot(20);
    proxy_->start();
    sim_.run_until(sim_.now() + 5.0);  // let connections establish
  }

  static constexpr std::uint64_t kChi = 1 << 10;

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{77};
  std::vector<net::Address> server_addrs_;
  std::vector<std::unique_ptr<osl::Machine>> server_machines_;
  std::vector<std::unique_ptr<replication::PbReplica>> replicas_;
  std::unique_ptr<osl::Machine> proxy_machine_;
  std::unique_ptr<ProxyNode> proxy_;
};

TEST(ProbeLogTest, ScoreAndWindowExpiry) {
  const net::HostId evil = 7;
  ProbeLog log(DetectionConfig{100.0, 3});
  log.record(evil, Suspicion::MalformedRequest, 10.0);
  log.record(evil, Suspicion::CorrelatedCrash, 20.0);
  EXPECT_EQ(log.score(evil, 25.0), 2u);
  EXPECT_FALSE(log.flagged(evil, 25.0));
  log.record(evil, Suspicion::CorrelatedCrash, 30.0);
  EXPECT_TRUE(log.flagged(evil, 35.0));
  // Events age out of the window: at t=115 only the 20.0 and 30.0 events
  // remain; at t=200 all have expired.
  EXPECT_EQ(log.score(evil, 115.0), 2u);
  EXPECT_FALSE(log.flagged(evil, 115.0));
  EXPECT_EQ(log.score(evil, 200.0), 0u);
  EXPECT_EQ(log.total_events(evil), 3u);
}

TEST(ProbeLogTest, SourcesAreIndependent) {
  const net::HostId a = 1, b = 2;
  ProbeLog log(DetectionConfig{100.0, 2});
  log.record(a, Suspicion::MalformedRequest, 1.0);
  log.record(a, Suspicion::MalformedRequest, 2.0);
  log.record(b, Suspicion::MalformedRequest, 3.0);
  EXPECT_TRUE(log.flagged(a, 5.0));
  EXPECT_FALSE(log.flagged(b, 5.0));
  auto flagged = log.flagged_sources(5.0);
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0], a);
}

TEST(ProbeLogTest, UnknownSourceScoresZero) {
  const net::HostId ghost = 42;
  ProbeLog log(DetectionConfig{});
  EXPECT_EQ(log.score(ghost, 1.0), 0u);
  EXPECT_FALSE(log.flagged(ghost, 1.0));
  EXPECT_EQ(log.total_events(ghost), 0u);
}

TEST_F(ProxyTest, ForwardsAndOverSignsResponses) {
  boot_and_start();
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", "proxy-0");
  sim_.run_until(sim_.now() + 30.0);

  ASSERT_FALSE(client.responses.empty());
  const Message& r = client.responses.front();
  EXPECT_EQ(r.type, MsgType::ProxyResponse);
  EXPECT_EQ(string_of(r.payload), "OK");
  ASSERT_TRUE(r.signature.has_value());
  ASSERT_TRUE(r.over_signature.has_value());
  EXPECT_EQ(r.over_signature->signer.name, "proxy-0");
  EXPECT_TRUE(replication::verify_message(r, registry_));
  EXPECT_TRUE(replication::verify_over_signature(r, registry_));
}

TEST_F(ProxyTest, OnlyOneResponsePerClientPerRequest) {
  boot_and_start();
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", "proxy-0");
  sim_.run_until(sim_.now() + 40.0);
  // Three servers answered the proxy, but the client hears exactly once.
  EXPECT_EQ(client.responses.size(), 1u);
  EXPECT_EQ(proxy_->stats().responses_delivered, 1u);
}

/// A client endpoint that also appends its address to a shared log on each
/// response — the delivery order across clients.
class LoggingClient : public ClientEndpoint {
 public:
  LoggingClient(net::Network& net, net::Address addr,
                std::vector<net::Address>& log)
      : ClientEndpoint(net, std::move(addr)), log_(log) {}

  void on_message(const net::Envelope& env) override {
    log_.push_back(address());
    ClientEndpoint::on_message(env);
  }

 private:
  std::vector<net::Address>& log_;
};

TEST_F(ProxyTest, AnswersClientsOfOneRequestInAscendingHostOrder) {
  boot_and_start();
  // Host ids are assigned at attach: c-z < c-a < c-m. The clients ask in
  // yet another order; the proxy answers in ascending id order.
  std::vector<net::Address> log;
  LoggingClient z(net_, "c-z", log);
  LoggingClient a(net_, "c-a", log);
  LoggingClient m(net_, "c-m", log);
  const RequestId rid{"shared", 1};
  m.send_request(rid, "PUT s 1", "proxy-0");
  a.send_request(rid, "PUT s 1", "proxy-0");
  z.send_request(rid, "PUT s 1", "proxy-0");
  sim_.run_until(sim_.now() + 40.0);
  EXPECT_EQ(log, (std::vector<net::Address>{"c-z", "c-a", "c-m"}));

  // A late asker of the same request is answered alone, once.
  LoggingClient late(net_, "c-late", log);
  late.send_request(rid, "PUT s 1", "proxy-0");
  sim_.run_until(sim_.now() + 40.0);
  EXPECT_EQ(log,
            (std::vector<net::Address>{"c-z", "c-a", "c-m", "c-late"}));
  EXPECT_EQ(proxy_->stats().responses_delivered, 4u);
}

TEST_F(ProxyTest, MalformedRequestsAreLoggedNotForwarded) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  std::uint64_t forwarded_before = proxy_->stats().requests_forwarded;
  net_.send("attacker", "proxy-0", bytes_of("garbage-bytes"));
  sim_.run_until(sim_.now() + 5.0);
  EXPECT_EQ(proxy_->stats().malformed_requests, 1u);
  EXPECT_EQ(proxy_->stats().requests_forwarded, forwarded_before);
  EXPECT_EQ(proxy_->probe_log().total_events(net_.id_of("attacker")), 1u);
}

TEST_F(ProxyTest, EmbeddedProbeCrashesServerChildAndProxyObserves) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  Message msg;
  msg.type = MsgType::Request;
  msg.request_id = RequestId{"attacker", 1};
  msg.requester = "attacker";
  msg.payload = osl::encode_probe(999);  // wrong key (server key is 10)
  net_.send("attacker", "proxy-0", msg.encode());
  sim_.run_until(sim_.now() + 10.0);

  // Every server child serving the forwarded copies crashed...
  for (auto& m : server_machines_) {
    EXPECT_EQ(m->child_crashes(), 1u);
  }
  // ...the PROXY observed it and attributed it to the attacker...
  EXPECT_GE(proxy_->stats().server_crashes_observed, 1u);
  EXPECT_GE(proxy_->probe_log().total_events(net_.id_of("attacker")), 1u);
  // ...and the attacker got no response at all.
  EXPECT_TRUE(attacker.responses.empty());
}

TEST_F(ProxyTest, RepeatedProbesGetSourceBlacklisted) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = RequestId{"attacker", i};
    msg.requester = "attacker";
    msg.payload = osl::encode_probe(500 + i);
    net_.send("attacker", "proxy-0", msg.encode());
    sim_.run_until(sim_.now() + 10.0);
  }
  EXPECT_TRUE(proxy_->blacklisted("attacker"));
  // Further requests (even well-formed ones) are dropped.
  std::uint64_t forwarded = proxy_->stats().requests_forwarded;
  attacker.send_request({"attacker", 99}, "GET a", "proxy-0");
  sim_.run_until(sim_.now() + 10.0);
  EXPECT_EQ(proxy_->stats().requests_forwarded, forwarded);
  EXPECT_GE(proxy_->stats().requests_from_blacklisted, 1u);
}

TEST_F(ProxyTest, LegitimateClientNotBlacklistedAlongsideAttacker) {
  boot_and_start();
  ClientEndpoint attacker(net_, "attacker");
  ClientEndpoint honest(net_, "honest");
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Message msg;
    msg.type = MsgType::Request;
    msg.request_id = RequestId{"attacker", i};
    msg.requester = "attacker";
    msg.payload = osl::encode_probe(600 + i);
    net_.send("attacker", "proxy-0", msg.encode());
    sim_.run_until(sim_.now() + 5.0);
    honest.send_request({"honest", i}, "PUT k v", "proxy-0");
    sim_.run_until(sim_.now() + 5.0);
  }
  EXPECT_TRUE(proxy_->blacklisted("attacker"));
  EXPECT_FALSE(proxy_->blacklisted("honest"));
  EXPECT_FALSE(honest.responses.empty());
}

TEST_F(ProxyTest, ReconnectsAfterServerReboot) {
  boot_and_start();
  server_machines_[0]->rerandomize(30);
  sim_.run_until(sim_.now() + 10.0);  // reconnect_delay passes
  ClientEndpoint client(net_, "client");
  client.send_request({"client", 1}, "PUT a 1", "proxy-0");
  sim_.run_until(sim_.now() + 30.0);
  EXPECT_FALSE(client.responses.empty());
}

TEST_F(ProxyTest, UnsolicitedServerResponseIgnored) {
  boot_and_start();
  // A (compromised) server sends a response for a request the proxy never
  // forwarded; the proxy must not deliver it to anyone.
  Message fake;
  fake.type = MsgType::Response;
  fake.request_id = RequestId{"nobody", 1};
  fake.payload = bytes_of("bogus");
  net_.send(server_addrs_[0], "proxy-0", fake.encode());
  sim_.run_until(sim_.now() + 5.0);
  EXPECT_EQ(proxy_->stats().responses_delivered, 0u);
}

}  // namespace
}  // namespace fortress::proxy
