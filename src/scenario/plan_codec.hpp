// plan_codec.hpp — the canonical JSON codec for net::ScenarioPlan.
//
// A serialized plan is a FIXTURE: the bytes, not just the meaning, are part
// of the contract. The codec therefore defines exactly one encoding —
// fields in the order the describe() lists below name them, 2-space indent,
// shortest round-trip number formatting, enums as lower-snake strings — and
// a strict decoder that rejects unknown keys, type confusion, duplicate keys
// and truncated documents with precise errors (json::ParseError), then runs
// the decoded plan through ScenarioPlan::validate() (net::PlanValidationError)
// so a malformed file can never reach the simulator.
//
// Each plan struct has ONE field list, its describe() below; the writer,
// the strict reader and the digest all walk it (scenario/codec.hpp). Adding
// a plan field therefore takes one describe() line, a rule in validate(),
// and optionally a PlanGenerator draw — not a writer/reader pair. Campaign
// specs and corpus entries embed plans through the same lists, at their
// nesting depth.
//
// Invariants (pinned by scenario_plan_codec_test + the planfuzz lane):
//  * plan_from_json(plan_to_json(p)) reproduces p exactly — re-encoding is
//    byte-identical;
//  * plan_digest is FNV-1a 64 over the COMPACT canonical encoding, so it is
//    a semantic digest: stable across whitespace/tooling, changed by any
//    field change (including the name). Corpus files pin it as
//    "fnv1a64:<16 hex digits>".
//
// Default-valued fields ARE emitted (no omit-if-default): a plan file reads
// complete, and adding a field to ScenarioPlan visibly changes every digest
// — which is what forces corpus golden values to be re-captured when the
// plan vocabulary grows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "net/scenario.hpp"

namespace fortress::scenario {

/// Canonical pretty encoding (the committed-fixture form).
std::string plan_to_json(const net::ScenarioPlan& plan);

/// Canonical compact encoding (no whitespace) — the digest input. Parses to
/// the same plan as the pretty form.
std::string plan_to_json_compact(const net::ScenarioPlan& plan);

/// Strict decode + validate. Throws json::ParseError on malformed JSON,
/// unknown keys or type confusion; net::PlanValidationError on a
/// well-formed but semantically invalid plan.
net::ScenarioPlan plan_from_json(std::string_view text);

/// FNV-1a 64 over plan_to_json_compact(plan).
std::uint64_t plan_digest(const net::ScenarioPlan& plan);

/// plan_digest rendered as the corpus pin string "fnv1a64:0123456789abcdef".
std::string plan_digest_string(const net::ScenarioPlan& plan);

// --- Field lists (emission order is the canonical key order) --------------

template <class V>
void describe(V& v, net::LatencySpec& l) {
  v.field("kind", l.kind);
  v.field("a", l.a);
  v.field("b", l.b);
}

template <class V>
void describe(V& v, net::PartitionWindow& w) {
  v.field("start", w.start);
  v.field("end", w.end);
  v.field("island", w.island);
}

template <class V>
void describe(V& v, net::FaultEvent& f) {
  v.field("target", f.target);
  v.field("index", f.index);
  v.field("at", f.at);
  v.field("kind", f.kind);
}

template <class V>
void describe(V& v, net::AttackSchedule& a) {
  v.field("enabled", a.enabled);
  v.field("direct_enabled", a.direct_enabled);
  v.field("probes_per_step", a.probes_per_step);
  v.field("indirect_fraction", a.indirect_fraction);
  v.field("start_time", a.start_time);
  v.field("sybil_identities", a.sybil_identities);
}

template <class V>
void describe(V& v, net::ServiceModel& s) {
  v.field("enabled", s.enabled);
  v.field("request_service", s.request_service);
  v.field("response_service", s.response_service);
  v.field("other_service", s.other_service);
  v.field("verify_cost", s.verify_cost);
  v.field("queue_capacity", s.queue_capacity);
  v.field("policy", s.policy);
  v.field("degrade_watermark", s.degrade_watermark);
  v.field("pushback_delay", s.pushback_delay);
  v.field("queue_control", s.queue_control);
}

template <class V>
void describe(V& v, net::RatePhase& p) {
  v.field("at", p.at);
  v.field("rate", p.rate);
}

template <class V>
void describe(V& v, net::TrafficSpec& t) {
  v.field("schedule", t.schedule);
  v.field("clients", t.clients);
  v.field("write_fraction", t.write_fraction);
  v.field("distinct_keys", t.distinct_keys);
  v.field("poisson", t.poisson);
  v.field("retry_base", t.retry_base);
  v.field("retry_multiplier", t.retry_multiplier);
  v.field("retry_cap", t.retry_cap);
  v.field("retry_jitter", t.retry_jitter);
  v.field("retry_budget", t.retry_budget);
  v.field("request_deadline", t.request_deadline);
}

template <class V>
void describe(V& v, net::PopulationSpec& p) {
  v.field("clients", p.clients);
  v.field("cohort_size", p.cohort_size);
  v.field("request_rate", p.request_rate);
  v.field("write_fraction", p.write_fraction);
  v.field("distinct_keys", p.distinct_keys);
  v.field("tick_interval", p.tick_interval);
  v.field("retry_base", p.retry_base);
  v.field("retry_multiplier", p.retry_multiplier);
  v.field("retry_cap", p.retry_cap);
  v.field("retry_budget", p.retry_budget);
  v.field("request_deadline", p.request_deadline);
}

template <class V>
void describe(V& v, net::ScenarioPlan& p) {
  v.field("name", p.name);
  v.field("latency", p.latency);
  v.field("drop_probability", p.drop_probability);
  v.field("duplicate_probability", p.duplicate_probability);
  v.field("partitions", p.partitions);
  v.field("faults", p.faults);
  v.field("attack", p.attack);
  v.field("keyspace", p.keyspace);
  v.field("step_duration", p.step_duration);
  v.field("rerandomize", p.rerandomize);
  v.field("n_servers", p.n_servers);
  v.field("n_proxies", p.n_proxies);
  v.field("proxy_blacklist", p.proxy_blacklist);
  v.field("detection_threshold", p.detection_threshold);
  v.field("detection_window", p.detection_window);
  v.field("horizon_steps", p.horizon_steps);
  v.field("service", p.service);
  v.field("traffic", p.traffic);
  v.field("population", p.population);
}

}  // namespace fortress::scenario
