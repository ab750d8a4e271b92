// Canonical-codec contract tests: round-trip byte-identity and digest
// stability over random plans, the malformed-input rejection table, and the
// precise-error-string guarantees of ScenarioPlan::validate(). The whole
// suite also runs under the -DFORTRESS_SANITIZE=address build (it is part
// of fortress_tests), so the parser is continuously exercised against
// exactly-sized heap buffers.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <set>
#include <string>

#include "common/json.hpp"
#include "scenario/codec.hpp"
#include "scenario/plan_codec.hpp"
#include "scenario/plan_generator.hpp"

namespace fortress::scenario {
namespace {

net::ScenarioPlan rich_plan() {
  net::ScenarioPlan p;
  p.name = "codec-rich";
  p.latency = net::LatencySpec::exponential(0.05, 0.4);
  p.drop_probability = 0.03;
  p.duplicate_probability = 0.01;
  p.partitions.push_back({10.0, 40.0, {"s0-replica-0", "s2-proxy-1"}});
  p.faults.push_back({net::FaultEvent::Target::Proxy, 1, 120.0,
                      net::FaultEvent::Kind::Crash});
  p.faults.push_back({net::FaultEvent::Target::Proxy, 1, 240.0,
                      net::FaultEvent::Kind::Recover});
  p.attack.sybil_identities = 3;
  p.proxy_blacklist = true;
  p.detection_threshold = 4;
  p.service.enabled = true;
  p.service.policy = net::OverloadPolicy::Backpressure;
  p.traffic.clients = 2;
  p.traffic.schedule = {{0.0, 2.0}, {100.0, 0.0}, {200.0, 3.5}};
  p.population.clients = 512;
  return p;
}

TEST(PlanCodecTest, RichPlanRoundTripsExactly) {
  const net::ScenarioPlan p = rich_plan();
  const std::string encoded = plan_to_json(p);
  const net::ScenarioPlan decoded = plan_from_json(encoded);
  EXPECT_EQ(plan_to_json(decoded), encoded);
  EXPECT_EQ(plan_digest(decoded), plan_digest(p));
  // Spot-check a few decoded fields (byte-identity already implies them).
  EXPECT_EQ(decoded.name, "codec-rich");
  EXPECT_EQ(decoded.partitions.size(), 1u);
  EXPECT_EQ(decoded.faults[0].kind, net::FaultEvent::Kind::Crash);
  EXPECT_EQ(decoded.service.policy, net::OverloadPolicy::Backpressure);
  EXPECT_EQ(decoded.traffic.schedule.size(), 3u);
  EXPECT_EQ(decoded.population.clients, 512u);
}

TEST(PlanCodecTest, CompactAndPrettyFormsDecodeIdentically) {
  const net::ScenarioPlan p = rich_plan();
  const net::ScenarioPlan from_pretty = plan_from_json(plan_to_json(p));
  const net::ScenarioPlan from_compact =
      plan_from_json(plan_to_json_compact(p));
  EXPECT_EQ(plan_to_json(from_pretty), plan_to_json(from_compact));
  EXPECT_EQ(plan_digest(from_pretty), plan_digest(from_compact));
}

// The round-trip PROPERTY: every generator-reachable plan (all axes, all
// enum values, fractional doubles) encodes to JSON that decodes to a plan
// that re-encodes byte-identically, with a stable digest.
TEST(PlanCodecTest, RandomPlansRoundTripByteIdentically) {
  PlanGenerator gen(0xC0DEC);
  for (int i = 0; i < 64; ++i) {
    const net::ScenarioPlan p = gen.next();
    SCOPED_TRACE(p.name);
    const std::string encoded = plan_to_json(p);
    net::ScenarioPlan decoded;
    ASSERT_NO_THROW(decoded = plan_from_json(encoded));
    EXPECT_EQ(plan_to_json(decoded), encoded);
    EXPECT_EQ(plan_digest(decoded), plan_digest(p));
    // Digest is stable across re-encode cycles, and the pin string has the
    // fixed "fnv1a64:" + 16 hex form.
    const std::string pin = plan_digest_string(p);
    ASSERT_EQ(pin.size(), 8u + 16u);
    EXPECT_EQ(pin.substr(0, 8), "fnv1a64:");
  }
}

TEST(PlanCodecTest, DigestIsSemanticNotCosmetic) {
  const net::ScenarioPlan p = rich_plan();
  net::ScenarioPlan q = p;
  EXPECT_EQ(plan_digest(p), plan_digest(q));
  q.drop_probability = 0.04;  // any field change moves the digest
  EXPECT_NE(plan_digest(p), plan_digest(q));
  net::ScenarioPlan r = p;
  r.name = "codec-rich-renamed";  // the name is part of the digest
  EXPECT_NE(plan_digest(p), plan_digest(r));
}

// --- malformed-input rejection table ---------------------------------------

/// Every row must be rejected by plan_from_json with the expected substring
/// in the error — precise errors are part of the codec contract.
struct BadInput {
  const char* label;
  std::string text;
  const char* expect_substring;
};

std::string valid_text() { return plan_to_json(rich_plan()); }

/// Replace the first occurrence of `from` in the valid encoding.
std::string mutate(const std::string& from, const std::string& to) {
  std::string text = valid_text();
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "bad table row: " << from;
  text.replace(at, from.size(), to);
  return text;
}

TEST(PlanCodecTest, MalformedInputsAreRejectedWithPreciseErrors) {
  const std::string valid = valid_text();
  const std::vector<BadInput> table = {
      // Truncations at interesting depths.
      {"empty", "", "unexpected end of input"},
      {"truncated-half", valid.substr(0, valid.size() / 2), "JSON parse"},
      {"truncated-tail", valid.substr(0, valid.size() - 2), "JSON parse"},
      {"trailing-garbage", valid + "x", "trailing bytes"},
      // Unknown / misspelled / duplicate keys. A misspelling reads as the
      // required key going missing; a pure addition reads as unknown.
      {"misspelled-root-key", mutate("\"keyspace\"", "\"keyspace_\""),
       "missing required key \"keyspace\""},
      {"unknown-root-key",
       mutate("\"keyspace\": 1024", "\"keyspace\": 1024, \"keyspacex\": 7"),
       "unknown key \"keyspacex\""},
      {"unknown-nested-key",
       mutate("\"probes_per_step\": 16",
              "\"probes_per_step\": 16, \"probes_extra\": 1"),
       "unknown key \"probes_extra\""},
      {"duplicate-key",
       mutate("\"drop_probability\": 0.03",
              "\"drop_probability\": 0.03, \"drop_probability\": 0.03"),
       "duplicate object key"},
      // Type confusion.
      {"string-for-number", mutate("\"keyspace\": 1024", "\"keyspace\": \"1024\""),
       "expected number, got string"},
      {"number-for-string", mutate("\"name\": \"codec-rich\"", "\"name\": 7"),
       "expected string, got number"},
      {"float-for-u64", mutate("\"keyspace\": 1024", "\"keyspace\": 1024.5"),
       "expected unsigned integer"},
      {"negative-for-u64",
       mutate("\"horizon_steps\": 100", "\"horizon_steps\": -100"),
       "expected unsigned integer"},
      // JSON-level strictness.
      {"nan-literal",
       mutate("\"drop_probability\": 0.03", "\"drop_probability\": NaN"),
       "invalid value"},
      {"leading-zero", mutate("\"keyspace\": 1024", "\"keyspace\": 01024"),
       "leading zeros"},
      {"bad-escape", mutate("codec-rich", "codec\\qrich"), "invalid escape"},
      // Enum vocabulary.
      {"unknown-enum",
       mutate("\"kind\": \"exponential\"", "\"kind\": \"pareto\""),
       "unknown latency kind"},
      {"unknown-policy",
       mutate("\"policy\": \"backpressure\"", "\"policy\": \"reject\""),
       "unknown overload policy"},
      // Semantically invalid (codec parses, validate() rejects).
      {"negative-rate",
       mutate("\"drop_probability\": 0.03", "\"drop_probability\": -0.25"),
       "must be in [0, 1]"},
      {"inverted-partition", mutate("\"start\": 10", "\"start\": 50"),
       "inverted window"},
      {"zero-keyspace", mutate("\"keyspace\": 1024", "\"keyspace\": 1"),
       "keyspace must be >= 2"},
  };
  for (const BadInput& row : table) {
    SCOPED_TRACE(row.label);
    try {
      plan_from_json(row.text);
      FAIL() << "accepted malformed input";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(row.expect_substring),
                std::string::npos)
          << "error was: " << e.what();
    }
  }
}

// Every enumerator has exactly one name in its table, the name parses back
// to it, and a name outside the table is rejected with the full vocabulary.
template <class E>
void expect_enum_table(std::initializer_list<E> all, const char* noun) {
  SCOPED_TRACE(noun);
  std::set<std::string> names;
  for (E e : all) {
    const std::string name = enum_name(e);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(parse_enum<E>(name, "ctx"), e) << name;
  }
  EXPECT_EQ(std::size(enum_table(E{}).names), all.size());
  try {
    parse_enum<E>("no_such_name", "ctx");
    FAIL() << "accepted an unknown name";
  } catch (const json::ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(std::string("ctx: unknown ") + noun +
                        " \"no_such_name\" (want "),
              std::string::npos)
        << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
}

TEST(PlanCodecTest, EnumTablesRoundTripEveryEnumerator) {
  using K = net::LatencySpec::Kind;
  using P = net::OverloadPolicy;
  using T = net::FaultEvent::Target;
  using F = net::FaultEvent::Kind;
  using M = StoppingRule::Metric;
  expect_enum_table({K::Fixed, K::Uniform, K::Exponential}, "latency kind");
  expect_enum_table({P::DropTail, P::ShedNewest, P::Backpressure,
                     P::DegradeUnsigned},
                    "overload policy");
  expect_enum_table({T::Server, T::Proxy}, "fault target");
  expect_enum_table({F::Recover, F::Crash}, "fault kind");
  expect_enum_table({M::MeanLifetime, M::CompromiseProbability,
                     M::LatencyQuantile},
                    "metric");
  expect_enum_table({sim::SchedulerKind::Wheel, sim::SchedulerKind::Heap},
                    "scheduler");
  expect_enum_table({model::SystemKind::S0, model::SystemKind::S1,
                     model::SystemKind::S2},
                    "system");
}

TEST(PlanCodecTest, ContainerTypeConfusionIsRejected) {
  // A default plan has empty containers, which makes the swap textual:
  // "partitions": [] → {} and "attack": {...} → [].
  const std::string base = plan_to_json(net::ScenarioPlan{});
  std::string arr_to_obj = base;
  const std::size_t at = arr_to_obj.find("\"partitions\": []");
  ASSERT_NE(at, std::string::npos);
  arr_to_obj.replace(at, 16, "\"partitions\": {}");
  try {
    plan_from_json(arr_to_obj);
    FAIL() << "accepted object where array expected";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected array, got object"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateRejectsNaNAndNamesTheField) {
  net::ScenarioPlan p = rich_plan();
  p.drop_probability = std::numeric_limits<double>::quiet_NaN();
  try {
    p.validate();
    FAIL() << "NaN accepted";
  } catch (const net::PlanValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("codec-rich"), std::string::npos) << what;
    EXPECT_NE(what.find("drop_probability"), std::string::npos) << what;
  }
}

TEST(PlanCodecTest, ValidateRejectsInvertedRatePhases) {
  net::ScenarioPlan p = rich_plan();
  p.traffic.schedule = {{50.0, 1.0}, {20.0, 2.0}};  // out of order
  try {
    p.validate();
    FAIL() << "inverted rate phases accepted";
  } catch (const net::PlanValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("schedule[1]"), std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateRejectsZeroSizeCohorts) {
  net::ScenarioPlan p = rich_plan();
  p.population.cohort_size = 0;
  try {
    p.validate();
    FAIL() << "zero-size cohort accepted";
  } catch (const net::PlanValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("cohort_size"), std::string::npos)
        << e.what();
  }
}

TEST(PlanCodecTest, ValidateAllowsFaultsAtOrPastHorizonByPolicy) {
  // Explicit policy: such faults are valid (the campaign drops them), so
  // validate() must accept, and the codec must round-trip them.
  net::ScenarioPlan p = rich_plan();
  p.faults.push_back({net::FaultEvent::Target::Server, 0,
                      p.step_duration * static_cast<double>(p.horizon_steps) *
                          2.0,
                      net::FaultEvent::Kind::Recover});
  EXPECT_NO_THROW(p.validate());
  EXPECT_EQ(plan_to_json(plan_from_json(plan_to_json(p))), plan_to_json(p));
}

TEST(PlanCodecTest, ValidateRejectsEmptyPartitionIsland) {
  net::ScenarioPlan p = rich_plan();
  p.partitions.push_back({1.0, 2.0, {}});
  EXPECT_THROW(p.validate(), net::PlanValidationError);
}

}  // namespace
}  // namespace fortress::scenario
