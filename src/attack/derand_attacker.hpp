// derand_attacker.hpp — a live de-randomization attacker (§2.1, §4.2).
//
// Realizes the two-phase attack of [Shacham04, Sovarel05] against the
// simulated stack:
//
//   DIRECT channels (servers in S0/S1, proxies in S2): the attacker keeps a
//   TCP connection to the target and sends one key-guess probe every
//   (step_duration / ω) time units. A wrong guess crashes the forked child —
//   observed as the connection aborting — so the attacker reconnects and
//   advances to the next candidate. A correct guess returns the owned-ack:
//   the node is compromised and the attacker holds it until the next reboot.
//   Keys that ever worked are remembered and retried first after a reboot,
//   which is exactly why proactive RECOVERY (same key) buys nothing once a
//   key is uncovered, while proactive OBFUSCATION (fresh key) resets the
//   search.
//
//   INDIRECT channel (the hidden server tier of S2): the attacker crafts
//   well-formed service requests with an exploit (embedded probe) in the
//   payload and submits them through a proxy, rotating proxies to spread
//   suspicion. It observes no crash feedback — the proxy absorbs it — and
//   paces these at κ·ω per step (Definition 5's reduced effective rate).
//
//   LAUNCH PADS: when a registered proxy machine falls, the attacker opens
//   connections FROM that proxy's identity to the (otherwise unreachable)
//   servers and probes them directly at full rate, until the pad reboots.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "osl/machine.hpp"
#include "sim/simulator.hpp"

namespace fortress::attack {

struct AttackerConfig {
  net::Address address = "attacker";
  std::uint64_t keyspace = 1ull << 16;  ///< χ
  sim::Time step_duration = 100.0;
  double probes_per_step = 64.0;          ///< ω, per direct channel
  double indirect_probes_per_step = 32.0; ///< κ·ω, crafted requests
  /// Number of source identities the attacker can present (§2.2's evasion:
  /// spreading probes over identities keeps each one below the proxies'
  /// per-source detection threshold). 1 = a single honest-looking source.
  unsigned sybil_identities = 1;
  std::uint64_t seed = 99;
};

struct AttackerStats {
  std::uint64_t direct_probes = 0;
  std::uint64_t indirect_probes = 0;
  std::uint64_t crashes_caused = 0;     ///< observed via connection aborts
  std::uint64_t compromises = 0;        ///< owned-acks received
  std::uint64_t keys_learned = 0;
};

class DerandAttacker final : public net::Handler {
 public:
  /// Interns the identities `config.address` and `config.sybil_identities`
  /// name; the rest of `config` takes effect at reset().
  DerandAttacker(sim::Simulator& sim, net::Network& network,
                 AttackerConfig config);
  ~DerandAttacker() override;
  DerandAttacker(const DerandAttacker&) = delete;
  DerandAttacker& operator=(const DerandAttacker&) = delete;

  // --- wiring: which channels exist. Draws nothing; reset() initializes
  // every channel's per-trial state. --------------------------------------

  /// Probe this machine directly (it must be reachable by clients).
  void add_direct_target(osl::Machine& target);

  /// Send crafted exploit-requests for the hidden server tier through these
  /// proxies (the indirect channel; one shared enumeration since the tier
  /// shares one key).
  void set_indirect_channel(std::vector<net::Address> proxies);

  /// When `pad` is compromised, use its identity to probe `servers`
  /// directly.
  void add_launchpad(osl::Machine& pad, std::vector<net::Address> servers);

  /// Begin a trial on the wired channels: the one place per-trial state is
  /// initialized, called on a freshly wired attacker and on a reused one
  /// alike, before start(). Seeds the RNG from `config`, draws every
  /// channel's enumeration offset in wiring order and then — only when
  /// `indirect_active` — the indirect channel's, installs the launchpad
  /// taps and attaches the identities (whose network must have been reset
  /// or never seen them). Preconditions: stopped;
  /// `config.sybil_identities` equals the constructor's; `indirect_active`
  /// requires set_indirect_channel.
  void reset(const AttackerConfig& config, bool indirect_active);

  /// Begin all attack loops.
  void start();
  void stop();

  const AttackerStats& stats() const { return stats_; }

  /// Number of direct targets currently controlled.
  int controlled_targets() const;

  // net::Handler:
  void on_message(const net::Envelope& env) override;
  void on_connection_closed(net::ConnectionId id, net::HostId peer,
                            net::CloseReason reason) override;

 private:
  struct Channel {
    enum class Kind { Direct, Pad } kind = Kind::Direct;
    osl::Machine* target = nullptr;  ///< Direct: the probed machine
    osl::Machine* pad = nullptr;     ///< Pad: the compromised proxy used
    net::HostId target_id = net::kInvalidHost;
    std::uint64_t enum_offset = 0;  ///< random start within the keyspace
    std::uint64_t next_candidate = 0;
    std::vector<osl::RandKey> learned_keys{};  ///< retry-first after reboots
    std::size_t learned_ix = 0;
    bool controlled = false;
    std::optional<net::ConnectionId> conn{};
    std::optional<osl::RandKey> in_flight{};  ///< guess awaiting an outcome
    std::unique_ptr<sim::PeriodicTimer> timer{};
  };

  void tick(Channel& channel);
  void tick_indirect();
  osl::RandKey next_guess(Channel& channel);
  void learn_key(Channel& channel, osl::RandKey key);

  sim::Simulator& sim_;
  net::Network& network_;
  AttackerConfig config_;
  Rng rng_;
  AttackerStats stats_;
  /// Presented source identities: the string addresses appear in crafted
  /// wire messages; the ids are what the send path uses.
  std::vector<net::Address> identities_;
  std::vector<net::HostId> identity_ids_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::map<net::ConnectionId, Channel*> by_conn_;

  // Indirect channel state.
  std::vector<net::HostId> indirect_proxies_;
  std::uint64_t indirect_offset_ = 0;
  std::uint64_t indirect_next_ = 0;
  std::size_t indirect_rotate_ = 0;
  std::uint64_t request_seq_ = 0;
  std::unique_ptr<sim::PeriodicTimer> indirect_timer_;
  bool running_ = false;
};

}  // namespace fortress::attack
