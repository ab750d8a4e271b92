// Client acceptance rules (§3): the client is the last line of validation —
// these tests hand it forged, partial and replayed responses directly.
#include "core/client.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/directory.hpp"
#include "net/network.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace fortress::core {
namespace {

using replication::Message;
using replication::MsgType;
using replication::RequestId;

/// A handler standing in for a (possibly malicious) server or proxy.
class Responder : public net::Handler {
 public:
  Responder(net::Network& net, net::Address addr)
      : net_(net), addr_(std::move(addr)) {
    net_.attach(addr_, *this);
  }
  ~Responder() override { net_.detach(addr_); }

  void on_message(const net::Envelope& env) override {
    auto msg = Message::decode(env.payload);
    if (msg && msg->type == MsgType::Request) {
      requests.push_back(*msg);
      last_from = env.from;
    }
  }

  void send(const net::Address& to, const Message& msg) {
    net_.send(addr_, to, msg.encode());
  }

  std::vector<Message> requests;
  net::Address last_from;

 private:
  net::Network& net_;
  net::Address addr_;
};

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : net_(sim_, {.latency = net::LatencySpec::fixed(0.5)}) {}

  Directory fortified_directory() {
    Directory d;
    d.replication = ReplicationType::PrimaryBackup;
    d.proxies = {"proxy-0", "proxy-1"};
    d.server_principals = {"server-0", "server-1"};
    return d;
  }

  Directory smr_directory() {
    Directory d;
    d.replication = ReplicationType::StateMachine;
    d.f = 1;
    d.server_addrs = {"server-0", "server-1", "server-2", "server-3"};
    d.server_principals = d.server_addrs;
    return d;
  }

  Message response_for(const RequestId& rid, const std::string& body) {
    Message m;
    m.type = MsgType::Response;
    m.request_id = rid;
    m.payload = bytes_of(body);
    return m;
  }

  sim::Simulator sim_;
  net::Network net_;
  crypto::KeyRegistry registry_{11};
};

TEST_F(ClientTest, FortifiedRequiresBothSignatures) {
  Responder proxy0(net_, "proxy-0");
  Responder proxy1(net_, "proxy-1");
  crypto::SigningKey server_key = registry_.enroll("server-0");
  crypto::SigningKey proxy_key = registry_.enroll("proxy-0");

  Client client(sim_, net_, registry_, fortified_directory(),
                ClientConfig{"client"});
  std::string got;
  client.submit(bytes_of("GET x"),
                [&](std::uint64_t, const Bytes& r) { got = string_of(r); });
  sim_.run_until(2.0);
  ASSERT_EQ(proxy0.requests.size(), 1u);
  RequestId rid = proxy0.requests[0].request_id;

  // Server-signed only (no over-signature): rejected.
  Message only_server = response_for(rid, "VALUE 1");
  only_server.type = MsgType::ProxyResponse;
  replication::sign_message(only_server, server_key);
  proxy0.send("client", only_server);
  sim_.run_until(4.0);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(client.stats().rejected_responses, 1u);

  // Properly doubly-signed: accepted.
  Message good = response_for(rid, "VALUE 1");
  good.type = MsgType::ProxyResponse;
  replication::sign_message(good, server_key);
  replication::over_sign_message(good, proxy_key);
  proxy0.send("client", good);
  sim_.run_until(6.0);
  EXPECT_EQ(got, "VALUE 1");
}

TEST_F(ClientTest, FortifiedRejectsUnknownProxyOverSignature) {
  Responder proxy0(net_, "proxy-0");
  crypto::SigningKey server_key = registry_.enroll("server-0");
  crypto::SigningKey rogue_key = registry_.enroll("rogue-proxy");

  Client client(sim_, net_, registry_, fortified_directory(),
                ClientConfig{"client"});
  bool answered = false;
  client.submit(bytes_of("GET x"),
                [&](std::uint64_t, const Bytes&) { answered = true; });
  sim_.run_until(2.0);
  RequestId rid = proxy0.requests.at(0).request_id;

  // Over-signed by an enrolled-but-not-a-proxy principal: rejected even
  // though both signatures verify cryptographically.
  Message m = response_for(rid, "VALUE 1");
  m.type = MsgType::ProxyResponse;
  replication::sign_message(m, server_key);
  replication::over_sign_message(m, rogue_key);
  proxy0.send("client", m);
  sim_.run_until(4.0);
  EXPECT_FALSE(answered);
  EXPECT_GE(client.stats().rejected_responses, 1u);
}

TEST_F(ClientTest, FortifiedRejectsUnknownServerPrincipal) {
  Responder proxy0(net_, "proxy-0");
  crypto::SigningKey impostor = registry_.enroll("server-99");  // not in dir
  crypto::SigningKey proxy_key = registry_.enroll("proxy-0");

  Client client(sim_, net_, registry_, fortified_directory(),
                ClientConfig{"client"});
  bool answered = false;
  client.submit(bytes_of("GET x"),
                [&](std::uint64_t, const Bytes&) { answered = true; });
  sim_.run_until(2.0);
  RequestId rid = proxy0.requests.at(0).request_id;

  Message m = response_for(rid, "VALUE 1");
  m.type = MsgType::ProxyResponse;
  replication::sign_message(m, impostor);
  replication::over_sign_message(m, proxy_key);
  proxy0.send("client", m);
  sim_.run_until(4.0);
  EXPECT_FALSE(answered);
}

TEST_F(ClientTest, SmrNeedsFPlusOneMatchingVotes) {
  std::vector<std::unique_ptr<Responder>> servers;
  for (const auto& a : smr_directory().server_addrs) {
    servers.push_back(std::make_unique<Responder>(net_, a));
  }
  crypto::SigningKey k0 = registry_.enroll("server-0");
  crypto::SigningKey k1 = registry_.enroll("server-1");

  Client client(sim_, net_, registry_, smr_directory(),
                ClientConfig{"client"});
  std::string got;
  client.submit(bytes_of("GET x"),
                [&](std::uint64_t, const Bytes& r) { got = string_of(r); });
  sim_.run_until(2.0);
  RequestId rid = servers[0]->requests.at(0).request_id;

  // One vote: not enough (f = 1 needs 2).
  Message v0 = response_for(rid, "VALUE 1");
  replication::sign_message(v0, k0);
  servers[0]->send("client", v0);
  sim_.run_until(4.0);
  EXPECT_TRUE(got.empty());

  // A SECOND vote from the same signer must not count twice.
  servers[0]->send("client", v0);
  sim_.run_until(6.0);
  EXPECT_TRUE(got.empty());

  // A mismatching vote from another server doesn't complete it either.
  Message bad = response_for(rid, "VALUE 666");
  replication::sign_message(bad, k1);
  servers[1]->send("client", bad);
  sim_.run_until(8.0);
  EXPECT_TRUE(got.empty());

  // Matching second vote: accepted.
  Message v1 = response_for(rid, "VALUE 1");
  replication::sign_message(v1, k1);
  servers[1]->send("client", v1);
  sim_.run_until(10.0);
  EXPECT_EQ(got, "VALUE 1");
}

TEST_F(ClientTest, RetriesUntilDeadlineThenTimesOut) {
  Responder proxy0(net_, "proxy-0");
  Responder proxy1(net_, "proxy-1");
  ClientConfig cfg;
  cfg.address = "client";
  cfg.retry_interval = 10.0;
  cfg.deadline = 45.0;
  Client client(sim_, net_, registry_, fortified_directory(), cfg);

  bool timed_out = false;
  client.submit(
      bytes_of("GET x"), [](std::uint64_t, const Bytes&) { FAIL(); },
      [&](std::uint64_t, core::RequestOutcome outcome) {
        timed_out = true;
        EXPECT_EQ(outcome, core::RequestOutcome::TimedOut);
      });
  sim_.run_until(200.0);
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(client.stats().expired, 1u);
  // Initial send + backoff retries at 10, 30 (the next, at 70, is clamped
  // to the deadline timer at 45) => proxy saw 3 copies.
  EXPECT_EQ(proxy0.requests.size(), 3u);
  EXPECT_EQ(client.stats().retries, 2u);
}

TEST_F(ClientTest, LateDuplicateResponseIgnored) {
  Responder proxy0(net_, "proxy-0");
  Responder proxy1(net_, "proxy-1");
  crypto::SigningKey server_key = registry_.enroll("server-0");
  crypto::SigningKey proxy_key = registry_.enroll("proxy-0");
  Client client(sim_, net_, registry_, fortified_directory(),
                ClientConfig{"client"});

  int calls = 0;
  client.submit(bytes_of("GET x"),
                [&](std::uint64_t, const Bytes&) { ++calls; });
  sim_.run_until(2.0);
  RequestId rid = proxy0.requests.at(0).request_id;
  Message good = response_for(rid, "VALUE 1");
  good.type = MsgType::ProxyResponse;
  replication::sign_message(good, server_key);
  replication::over_sign_message(good, proxy_key);
  proxy0.send("client", good);
  proxy0.send("client", good);  // duplicate (e.g. from the other proxy)
  sim_.run_until(10.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.stats().completed, 1u);
}

TEST_F(ClientTest, RequestsGoToAllProxiesNotServers) {
  Responder proxy0(net_, "proxy-0");
  Responder proxy1(net_, "proxy-1");
  Client client(sim_, net_, registry_, fortified_directory(),
                ClientConfig{"client"});
  client.submit(bytes_of("GET x"), [](std::uint64_t, const Bytes&) {});
  sim_.run_until(2.0);
  EXPECT_EQ(proxy0.requests.size(), 1u);
  EXPECT_EQ(proxy1.requests.size(), 1u);
}

TEST_F(ClientTest, DirectoryWithNoTargetsViolatesContract) {
  Directory empty;
  EXPECT_THROW(Client(sim_, net_, registry_, empty, ClientConfig{"client"}),
               ContractViolation);
}

/// Records each request's arrival time and sender address (for the backoff
/// schedule and jitter tests, which assert on exact retry instants).
class TimedResponder : public net::Handler {
 public:
  TimedResponder(sim::Simulator& sim, net::Network& net, net::Address addr)
      : sim_(sim), net_(net), addr_(std::move(addr)) {
    net_.attach(addr_, *this);
  }
  ~TimedResponder() override { net_.detach(addr_); }

  void on_message(const net::Envelope& env) override {
    auto msg = Message::decode(env.payload);
    if (msg && msg->type == MsgType::Request) {
      times.push_back(sim_.now());
      senders.push_back(net_.address_of(env.from));
    }
  }

  std::vector<sim::Time> arrivals_from(const net::Address& who) const {
    std::vector<sim::Time> out;
    for (std::size_t i = 0; i < times.size(); ++i) {
      if (senders[i] == who) out.push_back(times[i]);
    }
    return out;
  }

  std::vector<sim::Time> times;
  std::vector<net::Address> senders;

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  net::Address addr_;
};

TEST_F(ClientTest, BackoffScheduleIsCappedExponential) {
  TimedResponder proxy0(sim_, net_, "proxy-0");
  ClientConfig cfg;
  cfg.address = "client";
  cfg.retry_interval = 10.0;
  cfg.retry_multiplier = 2.0;
  cfg.retry_cap = 35.0;
  Client client(sim_, net_, registry_, fortified_directory(), cfg);
  client.submit(bytes_of("GET x"), [](std::uint64_t, const Bytes&) {});
  sim_.run_until(140.0);
  // Delays 10, 20, 35 (40 capped), 35, 35: sends at 0, 10, 30, 65, 100,
  // 135; +0.5 network latency each.
  ASSERT_EQ(proxy0.times.size(), 6u);
  EXPECT_DOUBLE_EQ(proxy0.times[0], 0.5);
  EXPECT_DOUBLE_EQ(proxy0.times[1], 10.5);
  EXPECT_DOUBLE_EQ(proxy0.times[2], 30.5);
  EXPECT_DOUBLE_EQ(proxy0.times[3], 65.5);
  EXPECT_DOUBLE_EQ(proxy0.times[4], 100.5);
  EXPECT_DOUBLE_EQ(proxy0.times[5], 135.5);
}

TEST_F(ClientTest, RetryBudgetExhaustionReportsOverloaded) {
  Responder proxy0(net_, "proxy-0");
  ClientConfig cfg;
  cfg.address = "client";
  cfg.retry_interval = 5.0;
  cfg.retry_multiplier = 2.0;
  cfg.retry_budget = 2;
  Client client(sim_, net_, registry_, fortified_directory(), cfg);
  bool overloaded = false;
  client.submit(
      bytes_of("GET x"), [](std::uint64_t, const Bytes&) { FAIL(); },
      [&](std::uint64_t, RequestOutcome outcome) {
        overloaded = true;
        EXPECT_EQ(outcome, RequestOutcome::Overloaded);
      });
  sim_.run_until(200.0);
  EXPECT_TRUE(overloaded);
  EXPECT_EQ(client.stats().gave_up, 1u);
  EXPECT_EQ(client.stats().expired, 0u);
  EXPECT_EQ(client.stats().retries, 2u);
  // Original + the two budgeted retries (at 5 and 15); the give-up fires
  // one further backoff later (t = 35) without re-sending.
  EXPECT_EQ(proxy0.requests.size(), 3u);
}

TEST_F(ClientTest, ResponseCancelsDeadlineTimer) {
  Responder proxy0(net_, "proxy-0");
  crypto::SigningKey server_key = registry_.enroll("server-0");
  crypto::SigningKey proxy_key = registry_.enroll("proxy-0");
  ClientConfig cfg;
  cfg.address = "client";
  cfg.retry_interval = 10.0;
  cfg.deadline = 45.0;
  Client client(sim_, net_, registry_, fortified_directory(), cfg);
  std::string got;
  bool timed_out = false;
  client.submit(
      bytes_of("GET x"),
      [&](std::uint64_t, const Bytes& r) { got = string_of(r); },
      [&](std::uint64_t, RequestOutcome) { timed_out = true; });
  sim_.run_until(44.0);  // one event-tick before the deadline timer at 45
  RequestId rid = proxy0.requests.at(0).request_id;
  Message good = response_for(rid, "VALUE 1");
  good.type = MsgType::ProxyResponse;
  replication::sign_message(good, server_key);
  replication::over_sign_message(good, proxy_key);
  proxy0.send("client", good);  // arrives at 44.5, beating the timer
  sim_.run_until(200.0);
  // Completion and timeout are mutually exclusive: the response cancelled
  // the pending deadline timer.
  EXPECT_EQ(got, "VALUE 1");
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(client.stats().completed, 1u);
  EXPECT_EQ(client.stats().expired, 0u);
}

TEST_F(ClientTest, CompletionAndTimeoutMutuallyExclusivePerRequest) {
  Responder proxy0(net_, "proxy-0");
  crypto::SigningKey server_key = registry_.enroll("server-0");
  crypto::SigningKey proxy_key = registry_.enroll("proxy-0");
  ClientConfig cfg;
  cfg.address = "client";
  cfg.retry_interval = 10.0;
  cfg.deadline = 45.0;
  Client client(sim_, net_, registry_, fortified_directory(), cfg);

  constexpr int kRequests = 10;
  std::map<std::uint64_t, int> responded, timed_out;
  for (int i = 0; i < kRequests; ++i) {
    std::uint64_t seq = client.submit(
        bytes_of("GET x" + std::to_string(i)),
        [&](std::uint64_t s, const Bytes&) { ++responded[s]; },
        [&](std::uint64_t s, RequestOutcome) { ++timed_out[s]; });
    (void)seq;
  }
  sim_.run_until(2.0);
  ASSERT_EQ(proxy0.requests.size(), static_cast<std::size_t>(kRequests));
  // Answer the even-indexed requests just before their shared deadline; let
  // the odd ones expire.
  sim_.run_until(44.0);
  for (int i = 0; i < kRequests; i += 2) {
    Message good = response_for(proxy0.requests.at(static_cast<std::size_t>(i))
                                    .request_id,
                                "V" + std::to_string(i));
    good.type = MsgType::ProxyResponse;
    replication::sign_message(good, server_key);
    replication::over_sign_message(good, proxy_key);
    proxy0.send("client", good);
  }
  sim_.run_until(300.0);
  EXPECT_EQ(client.stats().completed, 5u);
  EXPECT_EQ(client.stats().expired, 5u);
  // Exactly ONE terminal callback per request, never both.
  for (std::uint64_t seq = 1; seq <= static_cast<std::uint64_t>(kRequests);
       ++seq) {
    EXPECT_EQ(responded[seq] + timed_out[seq], 1) << "seq " << seq;
  }
}

TEST_F(ClientTest, JitterIsDeterministicPerSeed) {
  TimedResponder proxy0(sim_, net_, "proxy-0");
  auto make_cfg = [](const std::string& addr, std::uint64_t seed) {
    ClientConfig cfg;
    cfg.address = addr;
    cfg.retry_interval = 10.0;
    cfg.retry_multiplier = 1.0;  // isolate the jitter term
    cfg.retry_jitter = 0.3;
    cfg.seed = seed;
    return cfg;
  };
  Client a(sim_, net_, registry_, fortified_directory(), make_cfg("a", 7));
  Client b(sim_, net_, registry_, fortified_directory(), make_cfg("b", 7));
  Client c(sim_, net_, registry_, fortified_directory(), make_cfg("c", 8));
  a.submit(bytes_of("GET x"), [](std::uint64_t, const Bytes&) {});
  b.submit(bytes_of("GET x"), [](std::uint64_t, const Bytes&) {});
  c.submit(bytes_of("GET x"), [](std::uint64_t, const Bytes&) {});
  sim_.run_until(100.0);

  auto ta = proxy0.arrivals_from("a");
  auto tb = proxy0.arrivals_from("b");
  auto tc = proxy0.arrivals_from("c");
  ASSERT_GE(ta.size(), 5u);
  // Same seed => bit-identical retry schedule; different seed diverges.
  EXPECT_EQ(ta, tb);
  EXPECT_NE(ta, tc);
  // Every jittered delay stays within [7, 13].
  for (std::size_t i = 1; i < ta.size(); ++i) {
    const double delay = ta[i] - ta[i - 1];
    EXPECT_GE(delay, 7.0);
    EXPECT_LE(delay, 13.0);
  }
}

}  // namespace
}  // namespace fortress::core
