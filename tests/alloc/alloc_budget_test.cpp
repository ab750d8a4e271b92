// alloc_budget_test.cpp — heap allocations per served request on the S1
// (primary-backup + KvService) send path, gated against a fixed ceiling.
//
// This executable replaces the global operator new/delete with counting
// versions. Counting is off except inside a CountingScope, so set-up and
// warm-up allocations are not counted. Two runs of the same LiveS1 world
// (same seed, same simulated window) are compared:
//   * a request flow: a raw wire client sends a fixed list of PUT/GET
//     requests to every server and counts the signed responses;
//   * a request-free trial: the same world and window with no requests.
// The difference, divided by the number of served requests, is the
// per-request allocation count of the replication path (execute, state
// update, restore, signed response fan-out). The client builds its requests
// into pooled network buffers, so it adds nothing per request itself.
//
// It also checks that ScenarioPlan::validate, which every trial runs once
// through NetworkConfig::from_plan, allocates nothing on each committed
// scenarios/*.json plan (all valid): the error context is only built when
// a check fails.
//
// Usage: fortress_alloc_budget [--report]   (exit 1 when over budget)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/live_system.hpp"
#include "net/network.hpp"
#include "replication/message.hpp"
#include "replication/service.hpp"
#include "scenario/corpus.hpp"
#include "sim/simulator.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  if (g_counting) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace fortress;

/// Counts the global operator new calls made while it is alive.
class CountingScope {
 public:
  CountingScope() : start_(g_allocations) { g_counting = true; }
  ~CountingScope() { g_counting = false; }
  std::uint64_t count() const { return g_allocations - start_; }

 private:
  std::uint64_t start_;
};

constexpr int kWarmupRequests = 64;
constexpr int kCountedRequests = 256;
constexpr sim::Time kFirstSend = 10.0;
constexpr sim::Time kSendGap = 0.5;
constexpr sim::Time kDrain = 20.0;

/// A raw wire client: sends requests into pooled buffers and counts
/// distinct answered request sequence numbers.
class WireClient final : public net::Handler {
 public:
  WireClient(net::Network& network, std::vector<net::Address> servers)
      : network_(network) {
    id_ = network_.attach("alloc-client", *this);
    for (const net::Address& s : servers) {
      servers_.push_back(network_.intern(s));
    }
    msg_.type = replication::MsgType::Request;
    msg_.request_id.client = "alloc-client";
    msg_.requester = "alloc-client";
    body_.reserve(64);
    msg_.payload.reserve(64);
  }

  void send(int i) {
    // A small key space, values of varying length, and one GET per three
    // requests: PUTs that insert, PUTs that overwrite, and reads.
    body_ = (i % 3 == 2) ? "GET k" : "PUT k";
    body_ += static_cast<char>('0' + i % 10);
    if (i % 3 != 2) {
      body_ += " v";
      body_.append(static_cast<std::size_t>(1 + i % 7), 'x');
    }
    msg_.request_id.seq = static_cast<std::uint64_t>(i) + 1;
    msg_.payload.assign(body_.begin(), body_.end());
    for (net::HostId s : servers_) {
      Bytes wire = network_.acquire_buffer();
      msg_.encode_into(wire);
      network_.send(id_, s, std::move(wire));
    }
  }

  void on_message(const net::Envelope& env) override {
    auto view = replication::MessageView::decode(env.payload);
    if (!view || view->type() != replication::MsgType::Response) return;
    const std::uint64_t seq = view->request_seq();
    if (seq == 0 || seq > answered_.size()) return;
    if (!answered_[seq - 1]) {
      answered_[seq - 1] = true;
      ++served_;
    }
  }

  void expect(int n) { answered_.assign(static_cast<std::size_t>(n), false); }
  int served() const { return served_; }

 private:
  net::Network& network_;
  net::HostId id_ = net::kInvalidHost;
  std::vector<net::HostId> servers_;
  replication::Message msg_;
  std::string body_;
  std::vector<bool> answered_;
  int served_ = 0;
};

struct RunResult {
  std::uint64_t allocations = 0;  ///< counted over the measurement window
  int served = 0;                 ///< requests answered in the window
};

/// One S1 trial over a fixed simulated window; requests are sent only when
/// `with_requests` is set. Only the window after the warm-up is counted.
RunResult run_s1(bool with_requests) {
  sim::Simulator sim;
  net::ScenarioPlan plan;
  plan.keyspace = 1ull << 16;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  // One obfuscation epoch covers the whole window: the count is about the
  // request path, not about reboots.
  plan.step_duration = 10000.0;
  core::LiveS1 system(sim, plan, /*seed=*/12345, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  WireClient client(system.network(), system.directory().server_addrs);
  const int total = kWarmupRequests + kCountedRequests;
  client.expect(total);
  if (with_requests) {
    for (int i = 0; i < total; ++i) {
      sim.schedule_at(kFirstSend + kSendGap * i,
                      [&client, i] { client.send(i); });
    }
  }
  system.start();
  const sim::Time window_start = kFirstSend + kSendGap * kWarmupRequests;
  const sim::Time window_end = kFirstSend + kSendGap * total + kDrain;
  sim.run_until(window_start - kSendGap / 2);
  const int served_before = client.served();
  RunResult r;
  {
    CountingScope scope;
    sim.run_until(window_end);
    r.allocations = scope.count();
  }
  r.served = client.served() - served_before;
  return r;
}

/// Allocations of ScenarioPlan::validate on every committed plan; prints
/// each count and returns the number of plans that allocated.
int validate_allocating_plans() {
  std::vector<std::filesystem::path> paths;
  for (const auto& e :
       std::filesystem::directory_iterator(FORTRESS_SCENARIO_DIR)) {
    if (e.path().extension() == ".json") paths.push_back(e.path());
  }
  std::sort(paths.begin(), paths.end());
  int allocating = 0;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    const net::ScenarioPlan plan =
        scenario::corpus_entry_from_json(text.str()).plan;
    std::uint64_t allocations = 0;
    {
      CountingScope scope;
      plan.validate();
      allocations = scope.count();
    }
    std::printf("alloc_budget: ScenarioPlan::validate on %s: %llu "
                "allocations\n",
                path.filename().c_str(),
                static_cast<unsigned long long>(allocations));
    if (allocations != 0) ++allocating;
  }
  if (paths.empty()) {
    std::printf("alloc_budget: no plans under %s\n", FORTRESS_SCENARIO_DIR);
    return 1;
  }
  return allocating;
}

}  // namespace

int main(int argc, char** argv) {
  const bool report_only = argc > 1 && std::strcmp(argv[1], "--report") == 0;
  // Ceiling on allocations per served request. Before the allocation-free
  // send path this flow measured 132.55 per request; with it, 6.09 (GCC 12,
  // libstdc++): the per-request records a replica keeps (response cache,
  // requester list) and amortized table growth. The ceiling leaves a little
  // headroom for other standard libraries and is far below a third of the
  // old count.
  constexpr double kBudgetPerRequest = 10.0;

  const RunResult loaded = run_s1(true);
  const RunResult idle = run_s1(false);
  if (loaded.served != kCountedRequests) {
    std::printf("alloc_budget: expected %d served requests, got %d\n",
                kCountedRequests, loaded.served);
    return 1;
  }
  const double per_request =
      (static_cast<double>(loaded.allocations) -
       static_cast<double>(idle.allocations)) /
      loaded.served;
  std::printf(
      "alloc_budget: S1 PB+KvService, %d requests served: %llu allocations "
      "with requests, %llu request-free, %.2f per served request (budget "
      "%.2f)\n",
      loaded.served, static_cast<unsigned long long>(loaded.allocations),
      static_cast<unsigned long long>(idle.allocations), per_request,
      kBudgetPerRequest);
  const int allocating_plans = validate_allocating_plans();
  if (report_only) return 0;
  return per_request <= kBudgetPerRequest && allocating_plans == 0 ? 0 : 1;
}
