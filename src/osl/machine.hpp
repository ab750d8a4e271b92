// machine.hpp — a simulated machine running an address-space-randomized
// server process behind a forking daemon.
//
// This is the OS-level substrate of the live FORTRESS stack (DESIGN.md §2):
//  * the process holds a randomization key drawn from {0..chi-1};
//  * a probe carrying the wrong key crashes the forked child serving that
//    connection (the connection aborts with PeerCrashed; the daemon respawns
//    the child implicitly, so the service stays up and other connections are
//    unaffected) — the behaviour [Shacham04] §2.1 exploits;
//  * a probe carrying the right key compromises the machine: the attacker
//    receives an acknowledgement and controls the node until the next
//    re-randomization (rerandomize()) or recovery (recover());
//  * reboot-class operations drop all of the machine's connections.
//
// The machine interns its address once at construction; every message it
// sends or receives travels on its dense HostId (see net/interner.hpp).
//
// Application logic (replica, proxy) plugs in via osl::Application and never
// sees probe traffic — probes are absorbed at this layer, exactly as a
// memory-error exploit is invisible to correct application code.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/batch.hpp"
#include "net/network.hpp"
#include "osl/probe.hpp"

namespace fortress::osl {

/// Application callbacks; implemented by replicas/proxies running on a
/// Machine. Mirrors net::Handler but is routed through the machine, which
/// filters attack traffic.
class Application {
 public:
  virtual ~Application() = default;
  virtual void handle_message(const net::Envelope& env) = 0;
  virtual void handle_connection_opened(net::ConnectionId id,
                                        net::HostId peer) {
    (void)id;
    (void)peer;
  }
  virtual void handle_connection_closed(net::ConnectionId id,
                                        net::HostId peer,
                                        net::CloseReason reason) {
    (void)id;
    (void)peer;
    (void)reason;
  }
  /// The machine rebooted (recover/rerandomize): connections are gone.
  /// Durable service state survives; volatile sessions do not.
  virtual void handle_reboot() {}
  /// Verification staging. The machine calls this when `env`'s
  /// message enters the service queue (never for degraded admissions): the
  /// application may enqueue into `batch` the signature check it would
  /// otherwise compute one-shot inside handle_message, and return the job
  /// id. The machine flushes the batch every kLanes jobs and hands the
  /// verdict back as env.staged_verdict at dispatch. Return nullopt to decline —
  /// handle_message then runs with staged_verdict unset and verifies as
  /// usual. Crypto costs real time, not simulated time, so staging is
  /// observationally invisible to the simulation; the application's
  /// contract is that the staged verdict equals its one-shot verify.
  virtual std::optional<std::size_t> stage_verify(
      const net::Envelope& env, crypto::BatchVerifier& batch) {
    (void)env;
    (void)batch;
    return std::nullopt;
  }
};

/// Counters the bounded service queue keeps (all zero while the machine's
/// ServiceModel is disabled). Campaign trials sum these per deployment into
/// TrialOutcome's traffic stats.
struct OverloadStats {
  std::uint64_t enqueued = 0;  ///< admitted to the queue
  std::uint64_t served = 0;    ///< dispatched to the application
  /// Dropped by DropTail/DegradeUnsigned at a full queue, or evicted by
  /// ShedNewest.
  std::uint64_t shed = 0;
  /// Arrivals parked by Backpressure (counted once per park, so a message
  /// re-parked twice counts twice — the pushback the sender experienced).
  std::uint64_t backpressured = 0;
  /// Dispatches served with verification skipped (DegradeUnsigned).
  std::uint64_t degraded = 0;
  /// Queued (or parked) work lost to a crash/reboot of this machine.
  std::uint64_t dropped_on_reboot = 0;
  std::uint64_t max_depth = 0;  ///< waiting + in service, high-water mark
};

struct MachineConfig {
  net::Address address;
  std::uint64_t keyspace = 1ull << 16;  ///< χ
  /// Whether this machine's process parses request payloads. Servers do —
  /// so an exploit embedded in a forwarded request fires there. Proxies do
  /// NOT ("proxies do not do any processing", §3): an embedded probe passes
  /// through them harmlessly; only raw probes against the proxy's own
  /// network-facing code can compromise a proxy.
  bool processes_request_payloads = true;
};

/// A machine node. Non-copyable; lifetime must cover the simulation.
class Machine final : public net::Handler {
 public:
  Machine(net::Network& network, MachineConfig config);
  ~Machine() override;
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Attach to the network with the given randomization key.
  /// Precondition: not already booted.
  void boot(RandKey key);

  /// Detach (process death: removed from service, or a scheduled Crash
  /// fault). The attacker's live control dies with the process — the
  /// machine is no longer compromised — but the randomization key is
  /// retained, so a later revive() restarts the same process image.
  void shutdown();

  /// Boot a machine shutdown() took down, with the key it held when it
  /// went down, and notify the application it is coming back from a reboot
  /// (connections and volatile sessions are gone). The Recover half of a
  /// crash/recovery fault schedule. Precondition: not booted, but booted
  /// at least once (a key was assigned).
  void revive();

  /// Reboot with a fresh key (proactive obfuscation). Cleanses compromise,
  /// drops all connections. Precondition: booted.
  void rerandomize(RandKey fresh_key);

  /// Reboot with the SAME key (proactive recovery). Cleanses the attacker's
  /// live control (sessions die) but an attacker who knows the key can
  /// instantly re-compromise. Precondition: booted.
  void recover();

  /// Return to the freshly-constructed state under a (possibly different)
  /// keyspace: not booted, no key, no compromise history, no listeners or
  /// attacker taps. Does NOT touch the network — callers on the campaign
  /// trial-arena reuse path reset the network first, which already forgot
  /// this machine's attachment. The machine keeps its interned id (the
  /// interner survives a network reset).
  void reset(std::uint64_t keyspace);

  bool booted() const { return booted_; }
  RandKey key() const { return key_; }
  bool compromised() const { return compromised_; }
  std::uint64_t child_crashes() const { return child_crashes_; }
  std::uint64_t times_compromised() const { return times_compromised_; }
  const net::Address& address() const { return config_.address; }
  /// The machine's dense network id (interned at construction).
  net::HostId id() const { return id_; }

  void set_application(Application* app) { app_ = app; }

  /// Install (or replace) this machine's service model. With
  /// `model.enabled`, protocol messages that survive probe filtering are run
  /// through a bounded single-server queue: service times are drawn from
  /// `seed`'s deterministic stream, the queue is bounded at
  /// `model.queue_capacity`, and overflow behaviour follows `model.policy`.
  /// Probes are absorbed BEFORE the queue (the exploit fires in the child's
  /// parser, not in application scheduling). Reboots drop queued work
  /// (counted in OverloadStats::dropped_on_reboot). Zeros the stats; callers
  /// on the trial-arena reuse path call this after reset() for each trial.
  void configure_service(const net::ServiceModel& model, std::uint64_t seed);

  const OverloadStats& overload() const { return overload_stats_; }
  /// Current queue depth (waiting + in service); diagnostics/tests.
  std::size_t service_depth() const {
    return service_queue_.size() + (in_service_ ? 1 : 0);
  }

  /// Register a callback fired (synchronously) when a probe with the
  /// correct key lands. Multiple listeners are supported (the system's
  /// compromise latch and the attacker's bookkeeping both subscribe).
  void add_compromise_listener(std::function<void(Machine&)> listener) {
    compromise_listeners_.push_back(std::move(listener));
  }

  // --- attacker-side capabilities -----------------------------------------
  // Once compromised, the attacker wields this machine's network identity.
  // Contract-checked: calling these on an uncompromised machine throws.

  std::optional<net::ConnectionId> attacker_connect(net::HostId to);
  bool attacker_send_on(net::ConnectionId id, Bytes payload);
  void attacker_send(net::HostId to, Bytes payload);

  /// Install the attacker's observation taps: traffic and closure events on
  /// connections the attacker opened through this machine are routed to the
  /// taps instead of the application (the attacker sees what its implant
  /// sees). Reboots sever all such connections and clear the live set.
  void set_attacker_taps(
      std::function<void(const net::Envelope&)> on_message,
      std::function<void(net::ConnectionId, net::CloseReason)> on_closed);

  // --- net::Handler --------------------------------------------------------
  void on_message(const net::Envelope& env) override;
  void on_connection_opened(net::ConnectionId id, net::HostId peer) override;
  void on_connection_closed(net::ConnectionId id, net::HostId peer,
                            net::CloseReason reason) override;

 private:
  /// Message class for service-time selection (wire-type peek).
  enum class ServiceClass : std::uint8_t { Request, Response, Control };

  /// One queued (or in-service) message: the payload is copied into an
  /// owned pooled buffer because the delivery envelope's view dies when
  /// on_message returns.
  struct QueuedMessage {
    Bytes payload;
    net::HostId from = net::kInvalidHost;
    std::optional<net::ConnectionId> connection;
    ServiceClass cls = ServiceClass::Request;
    bool degraded = false;
    /// Job id in verify_batch_ when the application staged this message's
    /// signature check at admission (Application::stage_verify).
    std::optional<std::size_t> verify_job;
  };

  void reboot_common();
  void handle_probe(const net::Envelope& env, RandKey guess);
  static ServiceClass classify_service(BytesView payload);
  void enqueue_service(const net::Envelope& env, ServiceClass cls);
  QueuedMessage copy_message(const net::Envelope& env, ServiceClass cls);
  void push_service(QueuedMessage&& qm);
  void park_service(QueuedMessage&& qm);
  void begin_service();
  void finish_service();
  /// Drop all queued/parked/in-service work (reboot, shutdown, reset).
  void clear_service_queue();

  net::Network& network_;
  MachineConfig config_;
  net::HostId id_ = net::kInvalidHost;
  Application* app_ = nullptr;
  RandKey key_ = 0;
  bool booted_ = false;
  bool compromised_ = false;
  std::uint64_t child_crashes_ = 0;
  std::uint64_t times_compromised_ = 0;
  std::vector<std::function<void(Machine&)>> compromise_listeners_;
  std::set<net::ConnectionId> attacker_conns_;
  std::function<void(const net::Envelope&)> tap_message_;
  std::function<void(net::ConnectionId, net::CloseReason)> tap_closed_;

  // --- bounded service queue (inert while service_.enabled is false) ------
  net::ServiceModel service_;
  Rng service_rng_{0};
  std::deque<QueuedMessage> service_queue_;
  QueuedMessage in_service_msg_;
  bool in_service_ = false;
  sim::EventId service_event_ = 0;
  /// Bumped on every reboot/shutdown/reset so parked Backpressure re-offer
  /// events (which cannot be individually cancelled) recognize that the
  /// incarnation they belonged to is gone.
  std::uint64_t service_epoch_ = 0;
  OverloadStats overload_stats_;
  /// Verification staging area for queued messages. Flushed every kLanes
  /// jobs as admissions accumulate; cleared whenever the queue
  /// drains (job ids are batch indices, so clearing requires that no
  /// queued message still references one). Orphaned jobs — e.g. a staged
  /// message later evicted by ShedNewest — are harmless: their verdicts
  /// are simply never read. NOTE the interplay with DegradeUnsigned:
  /// degraded admissions are never staged (the handler skips verification
  /// entirely) and keep skipping the simulated verify_cost in
  /// begin_service — batching changes real compute cost only, never the
  /// simulated timing model.
  crypto::BatchVerifier verify_batch_;
};

}  // namespace fortress::osl
