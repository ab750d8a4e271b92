// bench_crossvalidate — E9: the live protocol-level simulation against the
// abstract probability model.
//
// The paper's evaluation lives entirely in the (α, κ, χ) model. Our live
// stack implements the MECHANISMS (probes, forking daemons, connection
// side-channels, proxies, re-randomization), so the two layers can check
// each other: we run the live S1 system under a direct attacker with
// ω probes/step against keyspace χ (=> α ≈ 1-(1-1/χ)^ω per §4) and compare
// mean live lifetimes with the model's closed form; likewise S1 under SO.
//
// The keyspace is kept small (live probing is event-expensive) — the model
// is scale-free in ω/χ so this exercises the same regime.
#include <cstdio>
#include <memory>

#include "attack/derand_attacker.hpp"
#include "core/live_system.hpp"
#include "model/step_model.hpp"
#include "replication/service.hpp"

using namespace fortress;

namespace {

double live_s1_lifetime(osl::ObfuscationPolicy policy, std::uint64_t chi,
                        double omega, std::uint64_t seed,
                        std::uint64_t max_steps) {
  sim::Simulator sim;
  net::ScenarioPlan plan;
  plan.keyspace = chi;
  plan.rerandomize = policy == osl::ObfuscationPolicy::Rerandomize;
  plan.step_duration = 100.0;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  core::LiveS1 system(sim, plan, seed, [](std::uint32_t) {
    return std::make_unique<replication::KvService>();
  });
  system.start();

  attack::AttackerConfig acfg;
  acfg.keyspace = chi;
  acfg.step_duration = plan.step_duration;
  acfg.probes_per_step = omega;
  acfg.indirect_probes_per_step = 0.0;
  acfg.seed = seed * 7919 + 13;
  attack::DerandAttacker attacker(sim, system.network(), acfg);
  // The attacker probes the primary's address: with a shared tier key that
  // is the one channel that matters (Definition 2 discussion).
  attacker.add_direct_target(system.server_machine(0));
  attacker.reset(acfg, /*indirect_active=*/false);
  attacker.start();

  sim.run_until(plan.step_duration * static_cast<double>(max_steps));
  return static_cast<double>(system.failure_step().value_or(max_steps));
}

}  // namespace

int main() {
  const std::uint64_t chi = 128;
  const double omega = 8.0;
  constexpr int kTrials = 60;
  const std::uint64_t max_steps = 400;

  // Model alpha for one channel probed omega times per step.
  model::AttackParams p;
  p.chi = chi;
  p.alpha = omega / static_cast<double>(chi);

  std::printf("E9: live protocol simulation vs abstract model (S1, one "
              "direct channel)\n");
  std::printf("chi = %llu, omega = %.0f probes/step, %d live trials\n\n",
              static_cast<unsigned long long>(chi), omega, kTrials);

  // --- proactive obfuscation ---
  double live_po = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    live_po += live_s1_lifetime(osl::ObfuscationPolicy::Rerandomize, chi,
                                omega, 1000 + static_cast<std::uint64_t>(t),
                                max_steps);
  }
  live_po /= kTrials;
  double model_po = model::expected_lifetime_po(model::SystemShape::s1(), p);

  // --- startup-only obfuscation (proactive recovery) ---
  double live_so = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    live_so += live_s1_lifetime(osl::ObfuscationPolicy::Recover, chi, omega,
                                2000 + static_cast<std::uint64_t>(t),
                                max_steps);
  }
  live_so /= kTrials;
  double model_so = model::expected_lifetime_s1_so(p);

  std::printf("%12s %16s %16s %12s\n", "policy", "live EL (mean)",
              "model EL", "ratio");
  for (int i = 0; i < 60; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("%12s %16.2f %16.2f %12.2f\n", "PO", live_po, model_po,
              live_po / model_po);
  std::printf("%12s %16.2f %16.2f %12.2f\n", "SO", live_so, model_so,
              live_so / model_so);
  for (int i = 0; i < 60; ++i) std::putchar('-');
  std::putchar('\n');

  // Agreement within Monte-Carlo noise (60 geometric samples have stderr
  // ~ EL/sqrt(60) ~ 13%); accept 35% to keep the bench robust.
  bool po_ok = live_po / model_po > 0.65 && live_po / model_po < 1.45;
  bool so_ok = live_so / model_so > 0.65 && live_so / model_so < 1.45;
  std::printf("\nLive PO lifetime matches model:  %s\n",
              po_ok ? "PASS" : "FAIL");
  std::printf("Live SO lifetime matches model:  %s\n",
              so_ok ? "PASS" : "FAIL");
  std::printf("Live PO > live SO (Trend 2 mechanism, live): %s\n",
              live_po > live_so ? "PASS" : "FAIL");
  return (po_ok && so_ok && live_po > live_so) ? 0 : 1;
}
