// bench_net — live event-path microbench: what one delivered protocol
// message costs on net::Network, separated from everything above it.
//
// Three sections, all on a 2-host network with zero-latency fixed delay so
// the simulator pop cost is the floor (~21 ns/event, BM_SimulatorEvent):
//
//  * BM_NetworkDatagram        — send() + scheduled delivery + handler
//                                dispatch, per delivered message;
//  * BM_NetworkConnSend        — send_on() over an established connection;
//  * BM_NetworkConnectTeardown — connect() + accept + close() + peer
//                                notification, per full handshake cycle.
//
// Writes BenchRecorder JSON (default BENCH_net.json, argv[1] overrides);
// the `bench_diff` CMake target gates these entries against
// bench/baseline.json like every other hot-path number.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "net/network.hpp"

using namespace fortress;
using namespace fortress::bench;

namespace {

class SinkHandler final : public net::Handler {
 public:
  void on_message(const net::Envelope& env) override {
    bytes_seen += env.payload.size();
  }
  std::size_t bytes_seen = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_net.json";
  BenchRecorder recorder;

  constexpr int kBatch = 10000;
  const Bytes payload(64, 0xAB);

  // --- datagram delivery ----------------------------------------------------
  {
    sim::Simulator sim;
    net::Network net(sim, {.latency = net::LatencySpec::fixed(0.0)});
    SinkHandler a, b;
    const net::HostId ha = net.attach("a", a);
    const net::HostId hb = net.attach("b", b);
    // Warm the buffer pool and the event slab.
    for (int i = 0; i < kBatch; ++i) net.send(ha, hb, Bytes(payload));
    sim.run();
    const double ns = recorder.time_and_add(
        "net_datagram", /*iters=*/200, static_cast<double>(kBatch), [&] {
          for (int i = 0; i < kBatch; ++i) {
            Bytes buf = net.acquire_buffer();
            buf.assign(payload.begin(), payload.end());
            net.send(ha, hb, std::move(buf));
          }
          sim.run();
        });
    std::printf("BM_NetworkDatagram        %8.1f ns/msg  (%llu delivered)\n",
                ns / kBatch,
                static_cast<unsigned long long>(net.delivered_count()));
  }

  // --- connection send ------------------------------------------------------
  {
    sim::Simulator sim;
    net::Network net(sim, {.latency = net::LatencySpec::fixed(0.0)});
    SinkHandler a, b;
    const net::HostId ha = net.attach("a", a);
    const net::HostId hb = net.attach("b", b);
    auto conn = net.connect(ha, hb);
    sim.run();
    for (int i = 0; i < kBatch; ++i) net.send_on(*conn, ha, Bytes(payload));
    sim.run();
    const double ns = recorder.time_and_add(
        "net_conn_send", /*iters=*/200, static_cast<double>(kBatch), [&] {
          for (int i = 0; i < kBatch; ++i) {
            Bytes buf = net.acquire_buffer();
            buf.assign(payload.begin(), payload.end());
            net.send_on(*conn, ha, std::move(buf));
          }
          sim.run();
        });
    std::printf("BM_NetworkConnSend        %8.1f ns/msg\n", ns / kBatch);
  }

  // --- connect / teardown cycle --------------------------------------------
  {
    sim::Simulator sim;
    net::Network net(sim, {.latency = net::LatencySpec::fixed(0.0)});
    SinkHandler a, b;
    const net::HostId ha = net.attach("a", a);
    const net::HostId hb = net.attach("b", b);
    const double ns = recorder.time_and_add(
        "net_connect_teardown", /*iters=*/200, static_cast<double>(kBatch),
        [&] {
          for (int i = 0; i < kBatch; ++i) {
            auto conn = net.connect(ha, hb);
            net.close(*conn, ha);
          }
          sim.run();
        });
    std::printf("BM_NetworkConnectTeardown %8.1f ns/cycle\n", ns / kBatch);
  }

  recorder.write_json(out_path);
  return 0;
}
