// Unit tests of the bounded service queue on osl::Machine: admission,
// policy behaviour at a full queue, degraded marking, control-plane bypass,
// probe absorption ahead of the queue, and reboot semantics.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/signature.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "osl/probe.hpp"
#include "replication/message.hpp"
#include "sim/simulator.hpp"

namespace fortress::osl {
namespace {

Bytes request_wire(const std::string& body, std::uint64_t seq) {
  replication::Message m;
  m.type = replication::MsgType::Request;
  m.request_id = replication::RequestId{"c", seq};
  m.requester = "c";
  m.payload = bytes_of(body);
  return m.encode();
}

Bytes heartbeat_wire() {
  replication::Message m;
  m.type = replication::MsgType::Heartbeat;
  return m.encode();
}

/// Records each dispatch's arrival time, payload and degraded flag.
class ServiceApp : public Application {
 public:
  explicit ServiceApp(sim::Simulator& sim) : sim_(sim) {}

  void handle_message(const net::Envelope& env) override {
    payloads.push_back(Bytes(env.payload.begin(), env.payload.end()));
    times.push_back(sim_.now());
    degraded_flags.push_back(env.degraded);
  }
  void handle_reboot() override { ++reboots; }

  std::vector<Bytes> payloads;
  std::vector<sim::Time> times;
  std::vector<bool> degraded_flags;
  int reboots = 0;

 private:
  sim::Simulator& sim_;
};


/// Stages every signed message's HMAC check through the machine's batched
/// crypto plane and records the verdict handed back at dispatch.
class StagingApp : public Application {
 public:
  explicit StagingApp(const crypto::HmacKey* schedule)
      : schedule_(schedule) {}

  void handle_message(const net::Envelope& env) override {
    verdicts.push_back(env.staged_verdict);
    degraded_flags.push_back(env.degraded);
  }

  std::optional<std::size_t> stage_verify(
      const net::Envelope& env, crypto::BatchVerifier& batch) override {
    auto msg = replication::MessageView::decode(env.payload);
    if (!msg || !msg->signature()) return std::nullopt;
    ++staged_calls;
    Bytes scratch;
    msg->signing_bytes_into(scratch);
    return batch.enqueue(schedule_, scratch, msg->signature()->tag);
  }

  std::vector<std::optional<bool>> verdicts;
  std::vector<bool> degraded_flags;
  int staged_calls = 0;

 private:
  const crypto::HmacKey* schedule_;
};

Bytes signed_response_wire(const crypto::SigningKey& key, std::uint64_t seq,
                           bool corrupt_tag) {
  replication::Message m;
  m.type = replication::MsgType::Response;
  m.request_id = replication::RequestId{"c", seq};
  m.payload = bytes_of("result");
  replication::sign_message(m, key);
  Bytes wire = m.encode();
  // The tag is the 32 bytes immediately before the trailing over-signature
  // presence byte: flipping one bit keeps the framing valid.
  if (corrupt_tag) wire[wire.size() - 2] ^= 0x01;
  return wire;
}

class NullHandler : public net::Handler {
 public:
  void on_message(const net::Envelope&) override {}
};

class MachineOverloadTest : public ::testing::Test {
 protected:
  MachineOverloadTest()
      : net_(sim_, {.latency = net::LatencySpec::fixed(1.0)}),
        machine_(net_, MachineConfig{"target", 16}),
        app_(sim_) {
    machine_.set_application(&app_);
    machine_.boot(5);
    net_.attach("sender", sender_);
  }

  net::ServiceModel model(net::OverloadPolicy policy,
                          std::uint32_t capacity) const {
    net::ServiceModel m;
    m.enabled = true;
    m.request_service = net::LatencySpec::fixed(1.0);
    m.response_service = net::LatencySpec::fixed(1.0);
    m.other_service = net::LatencySpec::fixed(1.0);
    m.queue_capacity = capacity;
    m.policy = policy;
    return m;
  }

  void send_requests(int n) {
    for (int i = 0; i < n; ++i) {
      net_.send("sender", "target",
                request_wire("GET k" + std::to_string(i),
                             static_cast<std::uint64_t>(i) + 1));
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  Machine machine_;
  ServiceApp app_;
  NullHandler sender_;
};

TEST_F(MachineOverloadTest, DisabledModelDispatchesSynchronously) {
  send_requests(3);
  sim_.run_until(1.0);  // delivery instant; no service delay at all
  EXPECT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_EQ(machine_.overload().served, 0u);
  EXPECT_EQ(machine_.service_depth(), 0u);
}

TEST_F(MachineOverloadTest, QueueSerializesDispatches) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(3);  // all delivered at t = 1
  sim_.run_until(10.0);
  ASSERT_EQ(app_.times.size(), 3u);
  // One unit of service each, back to back: dispatches at 2, 3, 4.
  EXPECT_DOUBLE_EQ(app_.times[0], 2.0);
  EXPECT_DOUBLE_EQ(app_.times[1], 3.0);
  EXPECT_DOUBLE_EQ(app_.times[2], 4.0);
  EXPECT_EQ(machine_.overload().enqueued, 3u);
  EXPECT_EQ(machine_.overload().served, 3u);
  EXPECT_EQ(machine_.overload().max_depth, 3u);
  EXPECT_EQ(machine_.service_depth(), 0u);
}

TEST_F(MachineOverloadTest, DropTailShedsArrivalsAtFullQueue) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 2), 1);
  send_requests(5);  // 1 enters service, 2 wait, 2 shed
  sim_.run_until(20.0);
  EXPECT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().shed, 2u);
  EXPECT_EQ(machine_.overload().served, 3u);
  // FIFO: the three OLDEST arrivals survive.
  EXPECT_EQ(app_.payloads[0], request_wire("GET k0", 1));
  EXPECT_EQ(app_.payloads[1], request_wire("GET k1", 2));
  EXPECT_EQ(app_.payloads[2], request_wire("GET k2", 3));
}

TEST_F(MachineOverloadTest, ShedNewestEvictsYoungestQueuedEntry) {
  machine_.configure_service(model(net::OverloadPolicy::ShedNewest, 2), 1);
  send_requests(5);
  sim_.run_until(20.0);
  // 1 in service; 2,3 queued; 4 evicts 3; 5 evicts 4 => served 1, 2, 5.
  ASSERT_EQ(app_.payloads.size(), 3u);
  EXPECT_EQ(machine_.overload().shed, 2u);
  EXPECT_EQ(app_.payloads[0], request_wire("GET k0", 1));
  EXPECT_EQ(app_.payloads[1], request_wire("GET k1", 2));
  EXPECT_EQ(app_.payloads[2], request_wire("GET k4", 5));
}

TEST_F(MachineOverloadTest, BackpressureParksAndRedelivers) {
  net::ServiceModel m = model(net::OverloadPolicy::Backpressure, 1);
  m.pushback_delay = 5.0;
  machine_.configure_service(m, 1);
  send_requests(3);  // 1 in service, 2 waits, 3 parked
  sim_.run_until(30.0);
  EXPECT_EQ(app_.payloads.size(), 3u);  // nothing lost
  EXPECT_EQ(machine_.overload().backpressured, 1u);
  EXPECT_EQ(machine_.overload().shed, 0u);
  // The parked arrival re-offers at t = 6 (delivery 1 + pushback 5), after
  // both earlier requests finished (t = 2, 3), and serves at t = 7.
  EXPECT_DOUBLE_EQ(app_.times[2], 7.0);
}

TEST_F(MachineOverloadTest, DegradeUnsignedMarksDispatchesAboveWatermark) {
  net::ServiceModel m = model(net::OverloadPolicy::DegradeUnsigned, 8);
  m.degrade_watermark = 2;
  m.verify_cost = 0.5;
  machine_.configure_service(m, 1);
  send_requests(4);
  sim_.run_until(30.0);
  ASSERT_EQ(app_.degraded_flags.size(), 4u);
  // Depth at admission: 0, 1, 2, 3 — the last two cross the watermark.
  EXPECT_FALSE(app_.degraded_flags[0]);
  EXPECT_FALSE(app_.degraded_flags[1]);
  EXPECT_TRUE(app_.degraded_flags[2]);
  EXPECT_TRUE(app_.degraded_flags[3]);
  EXPECT_EQ(machine_.overload().degraded, 2u);
  // Degraded dispatches skip verify_cost: 1.5 + 1.5 + 1.0 + 1.0.
  EXPECT_DOUBLE_EQ(app_.times[0], 2.5);
  EXPECT_DOUBLE_EQ(app_.times[1], 4.0);
  EXPECT_DOUBLE_EQ(app_.times[2], 5.0);
  EXPECT_DOUBLE_EQ(app_.times[3], 6.0);
}

TEST_F(MachineOverloadTest, ControlPlaneBypassesQueueByDefault) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(2);
  net_.send("sender", "target", heartbeat_wire());
  sim_.run_until(1.0);  // delivery instant
  // The heartbeat was dispatched synchronously at delivery; both requests
  // are still queued/in service.
  ASSERT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(app_.payloads[0], heartbeat_wire());
  sim_.run_until(10.0);
  EXPECT_EQ(app_.payloads.size(), 3u);
}

TEST_F(MachineOverloadTest, ControlPlaneQueuesWhenConfigured) {
  net::ServiceModel m = model(net::OverloadPolicy::DropTail, 8);
  m.queue_control = true;
  machine_.configure_service(m, 1);
  net_.send("sender", "target", heartbeat_wire());
  sim_.run_until(1.0);
  EXPECT_EQ(app_.payloads.size(), 0u);  // queued, not yet served
  sim_.run_until(10.0);
  EXPECT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(machine_.overload().enqueued, 1u);
}

TEST_F(MachineOverloadTest, ProbesAbsorbedBeforeQueue) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  net_.send("sender", "target", encode_probe(4));  // wrong key: child crash
  sim_.run_until(5.0);
  EXPECT_EQ(machine_.child_crashes(), 1u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_TRUE(app_.payloads.empty());
}


TEST_F(MachineOverloadTest, StagedVerdictsDeliveredAtDispatch) {
  crypto::KeyRegistry registry(3);
  crypto::SigningKey server = registry.enroll("server-0");
  StagingApp app(registry.schedule_for("server-0"));
  machine_.set_application(&app);
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 16), 1);
  for (int i = 0; i < 12; ++i) {
    net_.send("sender", "target",
              signed_response_wire(server, static_cast<std::uint64_t>(i) + 1,
                                   i % 3 == 2));
  }
  sim_.run_until(60.0);
  ASSERT_EQ(app.verdicts.size(), 12u);
  EXPECT_EQ(app.staged_calls, 12);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(app.verdicts[static_cast<std::size_t>(i)].has_value())
        << "dispatch " << i;
    // Corrupted tags (every third message) must come back rejected.
    EXPECT_EQ(*app.verdicts[static_cast<std::size_t>(i)], i % 3 != 2)
        << "dispatch " << i;
  }
}

TEST_F(MachineOverloadTest, DegradedAdmissionsAreNeverStaged) {
  crypto::KeyRegistry registry(3);
  crypto::SigningKey server = registry.enroll("server-0");
  StagingApp app(registry.schedule_for("server-0"));
  machine_.set_application(&app);
  net::ServiceModel m = model(net::OverloadPolicy::DegradeUnsigned, 8);
  m.degrade_watermark = 2;
  machine_.configure_service(m, 1);
  for (int i = 0; i < 4; ++i) {
    net_.send("sender", "target",
              signed_response_wire(server, static_cast<std::uint64_t>(i) + 1,
                                   false));
  }
  sim_.run_until(30.0);
  ASSERT_EQ(app.verdicts.size(), 4u);
  // Depth at admission: 0, 1, 2, 3 — the last two cross the watermark and
  // dispatch degraded, so stage_verify never ran for them.
  EXPECT_EQ(app.staged_calls, 2);
  EXPECT_TRUE(app.verdicts[0].has_value());
  EXPECT_TRUE(app.verdicts[1].has_value());
  EXPECT_TRUE(*app.verdicts[0]);
  EXPECT_TRUE(*app.verdicts[1]);
  EXPECT_FALSE(app.verdicts[2].has_value());
  EXPECT_FALSE(app.verdicts[3].has_value());
  EXPECT_TRUE(app.degraded_flags[2]);
  EXPECT_TRUE(app.degraded_flags[3]);
}

TEST_F(MachineOverloadTest, UnstagedDispatchesCarryNoVerdict) {
  crypto::KeyRegistry registry(3);
  crypto::SigningKey server = registry.enroll("server-0");
  StagingApp app(registry.schedule_for("server-0"));
  machine_.set_application(&app);
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(2);  // unsigned requests: stage_verify declines them
  sim_.run_until(10.0);
  ASSERT_EQ(app.verdicts.size(), 2u);
  EXPECT_EQ(app.staged_calls, 0);
  EXPECT_FALSE(app.verdicts[0].has_value());
  EXPECT_FALSE(app.verdicts[1].has_value());
}

TEST_F(MachineOverloadTest, RebootDropsQueuedWork) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(4);
  sim_.schedule_at(1.5, [this] { machine_.recover(); });
  sim_.run_until(30.0);
  // At t = 1.5 one request is in service (finishes at 2) and three wait;
  // all four die with the reboot.
  EXPECT_EQ(app_.payloads.size(), 0u);
  EXPECT_EQ(machine_.overload().dropped_on_reboot, 4u);
  EXPECT_EQ(machine_.service_depth(), 0u);
  // The machine still serves fresh work after the reboot.
  send_requests(1);
  sim_.run_until(60.0);
  EXPECT_EQ(app_.payloads.size(), 1u);
  EXPECT_EQ(machine_.overload().served, 1u);
}

TEST_F(MachineOverloadTest, RebootInvalidatesParkedBackpressureWork) {
  net::ServiceModel m = model(net::OverloadPolicy::Backpressure, 1);
  m.pushback_delay = 5.0;
  machine_.configure_service(m, 1);
  send_requests(3);  // third is parked until t = 6
  sim_.schedule_at(4.0, [this] { machine_.recover(); });
  sim_.run_until(30.0);
  // Served before the reboot: requests 1 (t=2) and 2 (t=3). The parked
  // third belongs to the dead incarnation and is dropped at its re-offer.
  EXPECT_EQ(app_.payloads.size(), 2u);
  EXPECT_EQ(machine_.overload().backpressured, 1u);
  EXPECT_EQ(machine_.overload().dropped_on_reboot, 1u);
}

TEST_F(MachineOverloadTest, ResetClearsServiceState) {
  machine_.configure_service(model(net::OverloadPolicy::DropTail, 8), 1);
  send_requests(3);
  sim_.run_until(2.5);  // one served, two pending
  machine_.reset(16);
  EXPECT_EQ(machine_.service_depth(), 0u);
  EXPECT_EQ(machine_.overload().enqueued, 0u);
  EXPECT_EQ(machine_.overload().served, 0u);
}

}  // namespace
}  // namespace fortress::osl
