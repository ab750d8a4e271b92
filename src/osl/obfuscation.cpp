#include "osl/obfuscation.hpp"

#include "common/check.hpp"

namespace fortress::osl {

ObfuscationScheduler::ObfuscationScheduler(sim::Simulator& sim,
                                           ObfuscationConfig config)
    : sim_(sim),
      timer_(sim, config.step_duration, [this] { step_boundary(); }) {
  reset(config);
}

void ObfuscationScheduler::add_machine(Machine& machine) {
  FORTRESS_EXPECTS(!booted_);
  individuals_.push_back(&machine);
}

void ObfuscationScheduler::add_shared_group(std::vector<Machine*> group) {
  FORTRESS_EXPECTS(!booted_);
  FORTRESS_EXPECTS(!group.empty());
  for (Machine* m : group) FORTRESS_EXPECTS(m != nullptr);
  groups_.push_back(std::move(group));
}

void ObfuscationScheduler::add_staggered_batch(std::vector<Machine*> batch) {
  FORTRESS_EXPECTS(!booted_);
  FORTRESS_EXPECTS(!batch.empty());
  for (Machine* m : batch) {
    FORTRESS_EXPECTS(m != nullptr);
    staggered_.push_back(m);
  }
}

RandKey ObfuscationScheduler::draw_fresh_key_avoiding_live() {
  // Reject keys currently assigned to any machine so the "all live keys are
  // distinct" invariant (§3) survives staggered redraws.
  for (int attempt = 0; attempt < 1000; ++attempt) {
    RandKey candidate = rng_.below(config_.keyspace);
    bool clash = false;
    auto check = [&](const Machine* m) {
      if (m->booted() && m->key() == candidate) clash = true;
    };
    for (const Machine* m : individuals_) check(m);
    for (const auto& g : groups_) {
      for (const Machine* m : g) check(m);
    }
    for (const Machine* m : staggered_) check(m);
    if (!clash) return candidate;
  }
  FORTRESS_CHECK(false && "keyspace exhausted by live keys");
  return 0;
}

void ObfuscationScheduler::staggered_boundary(std::size_t slot) {
  Machine* m = staggered_[slot];
  if (!m->booted()) return;
  if (config_.policy == ObfuscationPolicy::Rerandomize) {
    m->rerandomize(draw_fresh_key_avoiding_live());
  } else {
    m->recover();
  }
}

std::vector<RandKey> ObfuscationScheduler::draw_distinct_keys(
    std::size_t count) {
  const std::uint64_t chi = config_.keyspace;
  FORTRESS_CHECK(chi >= count);
  auto raw = rng_.sample_without_replacement(chi, count);
  return std::vector<RandKey>(raw.begin(), raw.end());
}

void ObfuscationScheduler::boot_all() {
  FORTRESS_EXPECTS(!booted_);
  FORTRESS_EXPECTS(!individuals_.empty() || !groups_.empty() ||
                   !staggered_.empty());
  auto keys = draw_distinct_keys(individuals_.size() + groups_.size() +
                                 staggered_.size());
  std::size_t ki = 0;
  for (Machine* m : individuals_) m->boot(keys[ki++]);
  for (auto& group : groups_) {
    RandKey shared = keys[ki++];
    for (Machine* m : group) m->boot(shared);
  }
  for (Machine* m : staggered_) m->boot(keys[ki++]);
  booted_ = true;
}

void ObfuscationScheduler::start() {
  FORTRESS_EXPECTS(booted_);
  timer_.start();
  // Staggered machines reboot one per sub-slot, evenly spaced inside each
  // step so that the other replicas can serve state transfer.
  const std::size_t n = staggered_.size();
  for (std::size_t i = 0; i < n; ++i) {
    auto timer = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.step_duration, [this, i] { staggered_boundary(i); });
    timer->start_after(config_.step_duration * (static_cast<double>(i) + 0.5) /
                       static_cast<double>(n));
    staggered_timers_.push_back(std::move(timer));
  }
}

void ObfuscationScheduler::stop() {
  timer_.stop();
  staggered_timers_.clear();
}

void ObfuscationScheduler::reset(const ObfuscationConfig& config) {
  FORTRESS_EXPECTS(config.step_duration > 0);
  FORTRESS_EXPECTS(config.period >= 1);
  // stop() cancels EventIds that are stale if the simulator was already
  // reset — cancel() just reports false for those, so the order is safe.
  stop();
  config_ = config;
  timer_.set_period(config_.step_duration);
  rng_ = Rng(config_.rng_seed);
  steps_ = 0;
  booted_ = false;
  on_step = nullptr;
}

void ObfuscationScheduler::step_boundary() {
  ++steps_;
  const bool boundary =
      (config_.policy == ObfuscationPolicy::Rerandomize)
          ? (steps_ % config_.period == 0)
          : true;  // recovery happens every step under either policy
  // Machines that were shut down (crashed hardware, removed from service)
  // are skipped: there is nothing to reboot.
  if (config_.policy == ObfuscationPolicy::Rerandomize && boundary) {
    auto keys = draw_distinct_keys(individuals_.size() + groups_.size());
    std::size_t ki = 0;
    for (Machine* m : individuals_) {
      RandKey key = keys[ki++];
      if (m->booted()) m->rerandomize(key);
    }
    for (auto& group : groups_) {
      RandKey shared = keys[ki++];
      for (Machine* m : group) {
        if (m->booted()) m->rerandomize(shared);
      }
    }
  } else {
    for (Machine* m : individuals_) {
      if (m->booted()) m->recover();
    }
    for (auto& group : groups_) {
      for (Machine* m : group) {
        if (m->booted()) m->recover();
      }
    }
  }
  if (on_step) on_step(steps_);
}

}  // namespace fortress::osl
