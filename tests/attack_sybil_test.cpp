// Sybil evasion (§2.2): spreading indirect probes over many presented
// identities keeps each one under the proxies' per-source detection
// threshold — the logging defence is per-source, so identity rotation is
// the attacker's counter-move, and the reason kappa cannot be driven to 0
// by detection alone.
#include "attack/derand_attacker.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/live_system.hpp"
#include "replication/service.hpp"

namespace fortress::attack {
namespace {

struct Outcome {
  std::uint64_t probes_delivered = 0;  // forwarded to the server tier
  int identities_blacklisted = 0;
  std::uint64_t server_crashes = 0;
};

Outcome run(unsigned sybil_identities, double total_rate) {
  sim::Simulator sim;
  net::ScenarioPlan plan;
  plan.keyspace = 1ull << 16;
  plan.step_duration = 100.0;
  plan.proxy_blacklist = true;
  plan.detection_threshold = 5;
  plan.detection_window = 500.0;
  core::LiveS2 system(sim, plan, /*seed=*/17, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  system.start();
  sim.run_until(5.0);

  AttackerConfig acfg;
  acfg.keyspace = plan.keyspace;
  acfg.step_duration = plan.step_duration;
  acfg.probes_per_step = 0.0001;  // direct channels idle
  acfg.indirect_probes_per_step = total_rate;
  acfg.sybil_identities = sybil_identities;
  acfg.seed = 29;
  DerandAttacker attacker(sim, system.network(), acfg);
  attacker.set_indirect_channel(system.directory().proxies);
  attacker.reset(acfg, /*indirect_active=*/true);
  attacker.start();

  sim.run_until(100.0 * 100);

  Outcome out;
  for (int i = 0; i < system.n_servers(); ++i) {
    out.server_crashes += system.server_machine(i).child_crashes();
  }
  // Count identities blacklisted by at least one proxy.
  for (unsigned s = 0; s < sybil_identities; ++s) {
    net::Address id = s == 0 ? net::Address("attacker")
                             : net::Address("attacker-sybil-" +
                                            std::to_string(s));
    for (int p = 0; p < system.n_proxies(); ++p) {
      if (system.proxy(p).blacklisted(id)) {
        ++out.identities_blacklisted;
        break;
      }
    }
  }
  out.probes_delivered = attacker.stats().indirect_probes;
  return out;
}

TEST(SybilTest, SingleIdentityAtHighRateIsShutOut) {
  Outcome o = run(1, 12.0);
  EXPECT_EQ(o.identities_blacklisted, 1);
  // After blacklisting, forwarded probes stop: server crashes stay small
  // relative to the 12 * 100 = 1200 probes sent.
  EXPECT_LT(o.server_crashes, 200u);
}

TEST(SybilTest, ManyIdentitiesSustainTheSameRateUndetected) {
  // 12 probes/step spread over 96 identities: each probe crashes children
  // at all 3 servers (3 suspicion events at the forwarding proxy), so a
  // single identity must stay under ~threshold/3 probes per window. With
  // 96 identities each sends 12*500/100/96 ~ 0.6 probes per window — well
  // below detection.
  Outcome o = run(96, 12.0);
  EXPECT_EQ(o.identities_blacklisted, 0);
  // The full probe stream reaches the servers (3 server copies per probe).
  EXPECT_GT(o.server_crashes, 2000u);
}

TEST(SybilTest, CrashVolumeScalesWithEvasion) {
  Outcome shut_out = run(1, 12.0);
  Outcome evading = run(96, 12.0);
  EXPECT_GT(evading.server_crashes, 5 * shut_out.server_crashes);
}

}  // namespace
}  // namespace fortress::attack
