// Tests for the campaign scale-out plane: shard partitioning's bit-identity
// to the single-process run, the exact sidecar/spec codecs, and the merge's
// integrity checks (exactly-once coverage, digest agreement).
#include "scenario/shard.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

namespace fortress::scenario {
namespace {

net::ScenarioPlan fast_plan(std::uint64_t chi, double omega, double kappa,
                            std::uint64_t horizon) {
  net::ScenarioPlan plan;
  plan.keyspace = chi;
  plan.attack.probes_per_step = omega;
  plan.attack.indirect_fraction = kappa;
  plan.horizon_steps = horizon;
  plan.proxy_blacklist = false;
  plan.latency = net::LatencySpec::uniform(0.01, 0.02);
  return plan;
}

CampaignSpec smoke_spec() {
  CampaignSpec spec;
  spec.name = "unit";
  spec.description = "shard unit fixture";
  spec.config.base_seed = 404;
  spec.config.threads = 2;
  spec.config.adaptive.enabled = true;
  spec.config.adaptive.round_trials = 4;
  spec.config.adaptive.target_rel_ci = 0.15;
  spec.config.adaptive.max_trials_per_cell = 16;
  spec.systems = {model::SystemKind::S1, model::SystemKind::S2};
  spec.plans = {fast_plan(64, 8.0, 0.5, 40), fast_plan(128, 8.0, 0.25, 40)};
  spec.plans[1].name = "quarter-kappa";
  return spec;
}

void expect_cells_bit_identical(const CellStats& a, const CellStats& b) {
  EXPECT_EQ(a.system, b.system);
  EXPECT_EQ(a.plan_name, b.plan_name);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.compromised, b.compromised);
  EXPECT_EQ(a.censored, b.censored);
  EXPECT_EQ(a.lifetime.count(), b.lifetime.count());
  EXPECT_EQ(a.lifetime.raw_mean(), b.lifetime.raw_mean());
  EXPECT_EQ(a.lifetime.raw_m2(), b.lifetime.raw_m2());
  EXPECT_EQ(a.lifetime.raw_min(), b.lifetime.raw_min());
  EXPECT_EQ(a.lifetime.raw_max(), b.lifetime.raw_max());
  EXPECT_EQ(a.lifetime_ci.lo, b.lifetime_ci.lo);
  EXPECT_EQ(a.lifetime_ci.hi, b.lifetime_ci.hi);
  EXPECT_EQ(a.lifetime_ci.level, b.lifetime_ci.level);
  EXPECT_EQ(a.attacker.direct_probes, b.attacker.direct_probes);
  EXPECT_EQ(a.attacker.indirect_probes, b.attacker.indirect_probes);
  EXPECT_EQ(a.attacker.crashes_caused, b.attacker.crashes_caused);
  EXPECT_EQ(a.attacker.compromises, b.attacker.compromises);
  EXPECT_EQ(a.attacker.keys_learned, b.attacker.keys_learned);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.blacklisted_sources, b.blacklisted_sources);
  EXPECT_EQ(a.traffic.offered, b.traffic.offered);
  EXPECT_EQ(a.traffic.completed, b.traffic.completed);
  EXPECT_EQ(a.traffic.max_queue_depth, b.traffic.max_queue_depth);
  EXPECT_EQ(a.traffic.goodput, b.traffic.goodput);
  EXPECT_EQ(a.traffic.latency.fingerprint(), b.traffic.latency.fingerprint());
  EXPECT_EQ(a.population.offered, b.population.offered);
  EXPECT_EQ(a.population.skipped_busy, b.population.skipped_busy);
  EXPECT_EQ(a.population.latency.fingerprint(),
            b.population.latency.fingerprint());
}

void replace_once(std::string& text, const std::string& from,
                  const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
}

TEST(ShardTest, TwoShardMergeBitIdenticalToFullRun) {
  // The scale-out contract end to end, in process: partition the grid two
  // ways, run each shard independently, merge — every field of every cell
  // must be BIT-identical to the unpartitioned run, and the serialized
  // reports byte-identical.
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  const CampaignResult full = run_campaign(cells, spec.config);

  const ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2);
  const ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2);
  EXPECT_EQ(s0.cells.size() + s1.cells.size(), cells.size());
  const CampaignResult merged = merge_shards({s0, s1});

  ASSERT_EQ(merged.cells.size(), full.cells.size());
  EXPECT_EQ(merged.total_trials, full.total_trials);
  EXPECT_EQ(merged.total_events, full.total_events);
  for (std::size_t i = 0; i < full.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(merged.cells[i], full.cells[i]);
  }
  EXPECT_EQ(campaign_result_to_json(merged), campaign_result_to_json(full));

  // More shards than cells: the surplus shard is empty, the merge intact.
  std::vector<ShardResult> many;
  for (std::uint32_t s = 0; s < 5; ++s) {
    many.push_back(run_campaign_shard(cells, spec.config, s, 5));
  }
  const CampaignResult wide = merge_shards(many);
  EXPECT_EQ(campaign_result_to_json(wide), campaign_result_to_json(full));
}

TEST(ShardTest, SidecarJsonRoundTripsBitExactly) {
  const CampaignSpec spec = smoke_spec();
  const std::uint64_t digest = campaign_spec_digest(spec);
  const ShardResult r =
      run_campaign_shard(spec.cells(), spec.config, 0, 2, digest);
  const std::string text = shard_result_to_json(r);
  const ShardResult back = shard_result_from_json(text);
  EXPECT_EQ(back.shard, r.shard);
  EXPECT_EQ(back.n_shards, r.n_shards);
  EXPECT_EQ(back.n_cells, r.n_cells);
  EXPECT_EQ(back.spec_digest, digest);
  ASSERT_EQ(back.cells.size(), r.cells.size());
  EXPECT_EQ(back.cell_indices, r.cell_indices);
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "cell " << i);
    expect_cells_bit_identical(back.cells[i], r.cells[i]);
  }
  // Re-encoding the decoded sidecar reproduces the bytes: the codec is
  // canonical, so sidecars are diffable fixtures.
  EXPECT_EQ(shard_result_to_json(back), text);
}

TEST(ShardTest, MergeRejectsBrokenPartitions) {
  const CampaignSpec spec = smoke_spec();
  const std::vector<CampaignCell> cells = spec.cells();
  ShardResult s0 = run_campaign_shard(cells, spec.config, 0, 2, 7);
  ShardResult s1 = run_campaign_shard(cells, spec.config, 1, 2, 7);

  EXPECT_THROW(merge_shards({}), json::ParseError);
  // Missing a shard: cells uncovered.
  EXPECT_THROW(merge_shards({s0}), json::ParseError);
  // The same shard twice: duplicate coverage.
  EXPECT_THROW(merge_shards({s0, s0}), json::ParseError);
  // Sidecars from different specs must not merge.
  ShardResult other = s1;
  other.spec_digest = 8;
  EXPECT_THROW(merge_shards({s0, other}), json::ParseError);
  // Disagreeing grid sizes must not merge.
  ShardResult wrong = s1;
  wrong.n_cells += 1;
  EXPECT_THROW(merge_shards({s0, wrong}), json::ParseError);
  // An unpinned digest (0) is compatible with a pinned one.
  ShardResult unpinned = s1;
  unpinned.spec_digest = 0;
  EXPECT_EQ(merge_shards({s0, unpinned}).cells.size(), cells.size());
}

TEST(ShardSpecTest, SpecRoundTripsThroughJson) {
  CampaignSpec spec = smoke_spec();
  StoppingRule comp;
  comp.metric = StoppingRule::Metric::CompromiseProbability;
  comp.target_rel = 0.25;
  comp.abs_floor = 0.05;
  StoppingRule lat;
  lat.metric = StoppingRule::Metric::LatencyQuantile;
  lat.quantile = 0.999;
  lat.abs_floor = 0.25;
  spec.config.adaptive.rules = {comp, lat};
  spec.config.adaptive.work_stealing = true;
  spec.config.scheduler = sim::SchedulerKind::Heap;
  spec.config.reuse_trial_stacks = false;

  const std::string text = campaign_spec_to_json(spec);
  const CampaignSpec back = campaign_spec_from_json(text);
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.config.base_seed, spec.config.base_seed);
  EXPECT_EQ(back.config.threads, spec.config.threads);
  EXPECT_EQ(back.config.ci_level, spec.config.ci_level);
  EXPECT_EQ(back.config.scheduler, spec.config.scheduler);
  EXPECT_EQ(back.config.reuse_trial_stacks, spec.config.reuse_trial_stacks);
  EXPECT_EQ(back.config.adaptive.enabled, spec.config.adaptive.enabled);
  EXPECT_EQ(back.config.adaptive.round_trials,
            spec.config.adaptive.round_trials);
  EXPECT_EQ(back.config.adaptive.work_stealing, true);
  ASSERT_EQ(back.config.adaptive.rules.size(), 2u);
  EXPECT_EQ(back.config.adaptive.rules[0].metric,
            StoppingRule::Metric::CompromiseProbability);
  EXPECT_EQ(back.config.adaptive.rules[0].abs_floor, 0.05);
  EXPECT_EQ(back.config.adaptive.rules[1].metric,
            StoppingRule::Metric::LatencyQuantile);
  EXPECT_EQ(back.config.adaptive.rules[1].quantile, 0.999);
  ASSERT_EQ(back.systems.size(), 2u);
  ASSERT_EQ(back.plans.size(), 2u);
  EXPECT_EQ(back.plans[1].name, "quarter-kappa");
  EXPECT_EQ(back.plans[1].keyspace, 128u);
  // Canonical: re-encode is byte-identical, and the digest is stable.
  EXPECT_EQ(campaign_spec_to_json(back), text);
  EXPECT_EQ(campaign_spec_digest(back), campaign_spec_digest(spec));
}

TEST(ShardSpecTest, StrictDecodeRejectsMalformedSpecs) {
  const std::string good = campaign_spec_to_json(smoke_spec());

  // Unknown top-level key.
  {
    std::string bad = good;
    bad.replace(bad.find("\"name\""), 6, "\"nmae\"");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Wrong schema tag.
  {
    std::string bad = good;
    bad.replace(bad.find("fortress-campaign-v1"), 20, "fortress-campaign-v9");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Unknown stopping-rule metric.
  {
    CampaignSpec spec = smoke_spec();
    StoppingRule r;
    r.abs_floor = 0.5;
    spec.config.adaptive.rules = {r};
    std::string bad = campaign_spec_to_json(spec);
    bad.replace(bad.find("mean_lifetime"), 13, "median_uptime");
    EXPECT_THROW(campaign_spec_from_json(bad), json::ParseError);
  }
  // Truncated document.
  EXPECT_THROW(campaign_spec_from_json(good.substr(0, good.size() / 2)),
               json::ParseError);
  // A 32-bit field is range-checked, not truncated: 2^32 threads must not
  // decode to 0 (= all hardware threads).
  {
    std::string bad = good;
    replace_once(bad, "\"threads\": 2,", "\"threads\": 4294967296,");
    try {
      campaign_spec_from_json(bad);
      FAIL() << "accepted a threads count beyond 32 bits";
    } catch (const json::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "campaign spec.threads: value 4294967296 does not fit"),
                std::string::npos)
          << e.what();
    }
  }
  // Errors inside an embedded plan carry the full path from the spec root.
  {
    std::string bad = good;
    replace_once(bad, "\"keyspace\": 128,", "\"keyspace\": \"128\",");
    try {
      campaign_spec_from_json(bad);
      FAIL() << "accepted a string keyspace";
    } catch (const json::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "campaign spec.plans[1].keyspace: expected number"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardSidecarTest, StrictDecodeRejectsTamperedSidecars) {
  const CampaignSpec spec = smoke_spec();
  const std::string text =
      shard_result_to_json(run_campaign_shard(spec.cells(), spec.config, 0,
                                              2, 7));
  // Unknown cell key.
  {
    std::string bad = text;
    bad.replace(bad.find("\"rounds\""), 8, "\"around\"");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // A truncated bit pattern is not a pinned double.
  {
    std::string bad = text;
    const std::size_t at = bad.find("0x");
    bad.replace(at, 4, "0x");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
  // shard / n_shards are 32-bit: 2^32 must not wrap to shard 0 of 1.
  {
    std::string bad = text;
    replace_once(bad, "\"shard\": 0,", "\"shard\": 4294967296,");
    replace_once(bad, "\"n_shards\": 2,", "\"n_shards\": 4294967297,");
    try {
      shard_result_from_json(bad);
      FAIL() << "accepted shard/n_shards beyond 32 bits";
    } catch (const json::ParseError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "shard result.shard: value 4294967296 does not fit"),
                std::string::npos)
          << e.what();
    }
  }
  // Histogram must carry exactly kBins counts.
  {
    std::string bad = text;
    const std::size_t at = bad.find("\"latency_bins\": [");
    ASSERT_NE(at, std::string::npos);
    bad.insert(bad.find('[', at) + 1, "\n          0,");
    EXPECT_THROW(shard_result_from_json(bad), json::ParseError);
  }
}

// --- Byte pins: the spec, sidecar and report formats are fixtures ---------
//
// The round-trip tests above compare the writer only against its own
// reader; these pin the bytes themselves, so a codec change that moves any
// byte of a committed spec or of a sidecar/report fails here even when it
// round-trips.

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ShardPinTest, SmokeSpecReencodesToItsFileBytes) {
  const std::string text =
      slurp(std::string(FORTRESS_SCENARIO_DIR) + "/../specs/shard_smoke.json");
  const CampaignSpec spec = campaign_spec_from_json(text);
  EXPECT_EQ(campaign_spec_to_json(spec), text);
  EXPECT_EQ(campaign_spec_digest(spec), 0xe2d9f4ef557182aeull);
}

double bits_to_double(std::uint64_t u) {
  double d = 0.0;
  std::memcpy(&d, &u, sizeof d);
  return d;
}

// Every CellStats field non-default: histogram bins, -0.0 and subnormal
// doubles, UINT64_MAX counters.
CellStats pinned_cell(model::SystemKind system, std::uint64_t salt) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  CellStats c;
  c.system = system;
  c.plan_name = "pin \"quoted\"\n" + std::to_string(salt);
  c.trials = kMax;
  c.rounds = 3 + salt;
  c.compromised = kMax - salt;
  c.censored = 17 + salt;
  c.lifetime = RunningStats::from_raw(
      kMax, -0.0, std::numeric_limits<double>::denorm_min(), -1.5e300,
      2.5 + static_cast<double>(salt));
  c.lifetime_ci.lo = bits_to_double(0x000fffffffffffffull);  // subnormal
  c.lifetime_ci.hi = -0.0;
  c.lifetime_ci.level = 0.99;
  c.attacker.direct_probes = kMax;
  c.attacker.indirect_probes = 5 + salt;
  c.attacker.crashes_caused = 6 + salt;
  c.attacker.compromises = 7 + salt;
  c.attacker.keys_learned = 8 + salt;
  c.events_executed = kMax - 1;
  c.blacklisted_sources = 9 + salt;
  c.traffic.offered = 10 + salt;
  c.traffic.completed = 11 + salt;
  c.traffic.timed_out = 12 + salt;
  c.traffic.gave_up = 13 + salt;
  c.traffic.retries = 14 + salt;
  c.traffic.rejected_responses = 15 + salt;
  c.traffic.enqueued = 16 + salt;
  c.traffic.served = 17 + salt;
  c.traffic.shed = 18 + salt;
  c.traffic.backpressured = 19 + salt;
  c.traffic.degraded = 20 + salt;
  c.traffic.dropped_on_reboot = 21 + salt;
  c.traffic.max_queue_depth = kMax;
  c.traffic.goodput = -std::numeric_limits<double>::denorm_min();
  c.population.offered = 22 + salt;
  c.population.completed = 23 + salt;
  c.population.timed_out = 24 + salt;
  c.population.gave_up = 25 + salt;
  c.population.retries = 26 + salt;
  c.population.rejected_responses = 27 + salt;
  c.population.skipped_busy = kMax;
  for (int b = 0; b < LatencyHistogram::kBins; ++b) {
    c.traffic.latency.add_bin(b, 1 + static_cast<std::uint64_t>(b) * salt);
    c.population.latency.add_bin(b, kMax - static_cast<std::uint64_t>(b));
  }
  return c;
}

TEST(ShardPinTest, SidecarAndReportBytesArePinned) {
  ShardResult r;
  r.shard = 1;
  r.n_shards = 4;
  r.n_cells = 11;
  r.spec_digest = 0xfedcba9876543210ull;
  r.cell_indices = {3, 7};
  r.cells = {pinned_cell(model::SystemKind::S0, 1),
             pinned_cell(model::SystemKind::S2, 2)};
  const std::string sidecar = shard_result_to_json(r);
  EXPECT_EQ(json::fnv1a64(sidecar), 0xe2c53788ebf70187ull) << sidecar.size();
  EXPECT_EQ(shard_result_to_json(shard_result_from_json(sidecar)), sidecar);

  CampaignResult report;
  report.cells = r.cells;
  report.total_trials = std::numeric_limits<std::uint64_t>::max();
  report.total_events = 42;
  const std::string text = campaign_result_to_json(report);
  EXPECT_EQ(json::fnv1a64(text), 0xdf060758c4af6dd5ull) << text.size();
}

}  // namespace
}  // namespace fortress::scenario
