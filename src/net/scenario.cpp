#include "net/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace fortress::net {

sim::Time LatencySpec::sample(Rng& rng) const {
  switch (kind) {
    case Kind::Fixed: return a;
    case Kind::Uniform: return a + (b - a) * rng.uniform01();
    case Kind::Exponential: return a + rng.exponential(1.0 / b);
  }
  FORTRESS_CHECK(false);
  return a;
}

namespace {

// Validation helpers: the success path is pure comparisons. The error
// string (plan path + field + expectation + offending value) is only built
// when a check fails — the path is a chain of Ctx links on the stack and
// an indexed field is a (name, index, member) triple — so per-trial plan
// validation costs branches, not allocations.

/// Where in a plan a check applies: a root (a caller's string, or
/// "ScenarioPlan '<name>'") followed by ".member" links.
class Ctx {
 public:
  explicit Ctx(const std::string& root) : root_(&root) {}
  static Ctx plan(const std::string& name) {
    Ctx c;
    c.plan_name_ = &name;
    return c;
  }
  Ctx member(const char* m) const {
    Ctx c;
    c.parent_ = this;
    c.member_ = m;
    return c;
  }
  std::string str() const {
    if (parent_ != nullptr) return parent_->str() + "." + member_;
    if (plan_name_ != nullptr) return "ScenarioPlan '" + *plan_name_ + "'";
    return *root_;
  }

 private:
  Ctx() = default;
  const std::string* root_ = nullptr;
  const std::string* plan_name_ = nullptr;
  const Ctx* parent_ = nullptr;
  const char* member_ = nullptr;
};

/// A field name, or an element of an array field ("faults[2].at").
struct Field {
  Field(const char* n) : name(n) {}  // NOLINT: implicit, like the literal
  Field(const char* n, std::size_t i, const char* m = "")
      : name(n), index(i), member(m), indexed(true) {}
  std::string str() const {
    if (!indexed) return name;
    return std::string(name) + "[" + std::to_string(index) + "]" + member;
  }
  const char* name;
  std::size_t index = 0;
  const char* member = "";
  bool indexed = false;
};

[[noreturn]] void plan_fail(const Ctx& ctx, const Field& field,
                            const char* expectation, double got) {
  std::ostringstream os;
  os << ctx.str() << ": " << field.str() << " " << expectation << ", got "
     << got;
  throw PlanValidationError(os.str());
}

[[noreturn]] void plan_fail_msg(const Ctx& ctx, const std::string& m) {
  throw PlanValidationError(ctx.str() + ": " + m);
}

/// Finite and >= 0 — the shape every rate, probability floor, cost and
/// timestamp in a plan shares. NaN fails every comparison, so checks are
/// written as negations of the allowed range.
void check_nonneg(const Ctx& ctx, const Field& field, double v) {
  if (!(std::isfinite(v) && v >= 0.0)) {
    plan_fail(ctx, field, "must be finite and >= 0", v);
  }
}

void check_probability(const Ctx& ctx, const Field& field, double v) {
  if (!(std::isfinite(v) && v >= 0.0 && v <= 1.0)) {
    plan_fail(ctx, field, "must be in [0, 1]", v);
  }
}

void check_latency(const LatencySpec& l, const Ctx& ctx) {
  check_nonneg(ctx, "a", l.a);
  switch (l.kind) {
    case LatencySpec::Kind::Fixed:
      break;
    case LatencySpec::Kind::Uniform:
      if (!(std::isfinite(l.b) && l.b >= l.a)) {
        plan_fail(ctx, "b", "must be finite and >= a (uniform)", l.b);
      }
      break;
    case LatencySpec::Kind::Exponential:
      if (!(std::isfinite(l.b) && l.b > 0.0)) {
        plan_fail(ctx, "b", "must be finite and > 0 (exponential mean)", l.b);
      }
      break;
  }
}

void check_service(const ServiceModel& m, const Ctx& ctx) {
  if (!m.enabled) return;
  check_latency(m.request_service, ctx.member("request_service"));
  check_latency(m.response_service, ctx.member("response_service"));
  check_latency(m.other_service, ctx.member("other_service"));
  check_nonneg(ctx, "verify_cost", m.verify_cost);
  if (m.queue_capacity < 1) {
    plan_fail(ctx, "queue_capacity", "must be >= 1", m.queue_capacity);
  }
  if (m.policy == OverloadPolicy::Backpressure &&
      !(std::isfinite(m.pushback_delay) && m.pushback_delay > 0.0)) {
    plan_fail(ctx, "pushback_delay",
              "must be finite and > 0 under Backpressure", m.pushback_delay);
  }
}

void check_traffic(const TrafficSpec& t, const Ctx& ctx) {
  if (!t.enabled()) return;
  if (t.clients < 1) plan_fail(ctx, "clients", "must be >= 1", t.clients);
  check_probability(ctx, "write_fraction", t.write_fraction);
  if (t.distinct_keys < 1) {
    plan_fail(ctx, "distinct_keys", "must be >= 1", t.distinct_keys);
  }
  sim::Time prev = -1.0;
  for (std::size_t i = 0; i < t.schedule.size(); ++i) {
    const RatePhase& phase = t.schedule[i];
    if (!(std::isfinite(phase.at) && phase.at >= 0.0 && phase.at > prev)) {
      plan_fail_msg(
          ctx, Field("schedule", i).str() + ".at must be finite, >= 0 and " +
                   "strictly after the previous phase (" +
                   std::to_string(prev) + "), got " + std::to_string(phase.at));
    }
    check_nonneg(ctx, Field("schedule", i, ".rate"), phase.rate);
    prev = phase.at;
  }
  if (!(std::isfinite(t.retry_base) && t.retry_base > 0.0)) {
    plan_fail(ctx, "retry_base", "must be finite and > 0", t.retry_base);
  }
  if (!(std::isfinite(t.retry_multiplier) && t.retry_multiplier >= 1.0)) {
    plan_fail(ctx, "retry_multiplier", "must be finite and >= 1",
              t.retry_multiplier);
  }
  check_nonneg(ctx, "retry_cap", t.retry_cap);
  if (!(std::isfinite(t.retry_jitter) && t.retry_jitter >= 0.0 &&
        t.retry_jitter < 1.0)) {
    plan_fail(ctx, "retry_jitter", "must be in [0, 1)", t.retry_jitter);
  }
  check_nonneg(ctx, "request_deadline", t.request_deadline);
}

void check_population(const PopulationSpec& p, const Ctx& ctx) {
  if (!p.enabled()) return;
  if (p.cohort_size < 1) {
    plan_fail(ctx, "cohort_size", "must be >= 1 (zero-size cohorts)",
              p.cohort_size);
  }
  check_nonneg(ctx, "request_rate", p.request_rate);
  check_probability(ctx, "write_fraction", p.write_fraction);
  // Keys live in a u16 table column.
  if (p.distinct_keys < 1 || p.distinct_keys > 65536) {
    plan_fail(ctx, "distinct_keys", "must be in [1, 65536]", p.distinct_keys);
  }
  if (!(std::isfinite(p.tick_interval) && p.tick_interval > 0.0)) {
    plan_fail(ctx, "tick_interval", "must be finite and > 0", p.tick_interval);
  }
  if (!(std::isfinite(p.retry_base) && p.retry_base > 0.0)) {
    plan_fail(ctx, "retry_base", "must be finite and > 0", p.retry_base);
  }
  if (!(std::isfinite(p.retry_multiplier) && p.retry_multiplier >= 1.0)) {
    plan_fail(ctx, "retry_multiplier", "must be finite and >= 1",
              p.retry_multiplier);
  }
  check_nonneg(ctx, "retry_cap", p.retry_cap);
  check_nonneg(ctx, "request_deadline", p.request_deadline);
}

}  // namespace

void LatencySpec::validate(const std::string& ctx) const {
  check_latency(*this, Ctx(ctx));
}

bool PartitionWindow::contains(const Address& addr) const {
  return std::find(island.begin(), island.end(), addr) != island.end();
}

void ServiceModel::validate(const std::string& ctx) const {
  check_service(*this, Ctx(ctx));
}

void TrafficSpec::validate(const std::string& ctx) const {
  check_traffic(*this, Ctx(ctx));
}

void PopulationSpec::validate(const std::string& ctx) const {
  check_population(*this, Ctx(ctx));
}

void ScenarioPlan::validate() const {
  const Ctx ctx = Ctx::plan(name);
  check_latency(latency, ctx.member("latency"));
  check_probability(ctx, "drop_probability", drop_probability);
  check_probability(ctx, "duplicate_probability", duplicate_probability);
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    const PartitionWindow& w = partitions[i];
    check_nonneg(ctx, Field("partitions", i, ".start"), w.start);
    if (!(std::isfinite(w.end) && w.end >= w.start)) {
      plan_fail_msg(ctx, Field("partitions", i).str() + ": inverted window [" +
                             std::to_string(w.start) + ", " +
                             std::to_string(w.end) + ")");
    }
    if (w.island.empty()) {
      plan_fail_msg(ctx, Field("partitions", i).str() +
                             ".island must name at least one address");
    }
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const FaultEvent& f = faults[i];
    // Policy note: `at` at or past the horizon is VALID — the campaign
    // drops such events (dead work) rather than rejecting the plan.
    check_nonneg(ctx, Field("faults", i, ".at"), f.at);
    if (f.index < 0) {
      plan_fail(ctx, Field("faults", i, ".index"), "must be >= 0", f.index);
    }
  }
  if (attack.enabled) {
    if (!(std::isfinite(attack.probes_per_step) &&
          attack.probes_per_step > 0.0)) {
      plan_fail(ctx, "attack.probes_per_step", "must be finite and > 0",
                attack.probes_per_step);
    }
    check_nonneg(ctx, "attack.indirect_fraction", attack.indirect_fraction);
    check_nonneg(ctx, "attack.start_time", attack.start_time);
    if (attack.sybil_identities < 1) {
      plan_fail(ctx, "attack.sybil_identities", "must be >= 1",
                attack.sybil_identities);
    }
  }
  if (keyspace < 2) plan_fail(ctx, "keyspace", "must be >= 2",
                              static_cast<double>(keyspace));
  if (!(std::isfinite(step_duration) && step_duration > 0.0)) {
    plan_fail(ctx, "step_duration", "must be finite and > 0", step_duration);
  }
  if (n_servers < 1) plan_fail(ctx, "n_servers", "must be >= 1", n_servers);
  if (n_proxies < 1) plan_fail(ctx, "n_proxies", "must be >= 1", n_proxies);
  if (horizon_steps < 1) {
    plan_fail(ctx, "horizon_steps", "must be >= 1",
              static_cast<double>(horizon_steps));
  }
  if (proxy_blacklist &&
      !(std::isfinite(detection_window) && detection_window > 0.0)) {
    plan_fail(ctx, "detection_window",
              "must be finite and > 0 under proxy_blacklist",
              detection_window);
  }
  check_service(service, ctx.member("service"));
  check_traffic(traffic, ctx.member("traffic"));
  check_population(population, ctx.member("population"));
}

}  // namespace fortress::net
