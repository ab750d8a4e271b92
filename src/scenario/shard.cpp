#include "scenario/shard.hpp"

#include <numeric>

#include "common/check.hpp"
#include "scenario/codec.hpp"
#include "scenario/plan_codec.hpp"

namespace fortress::scenario {

namespace {

using json::ParseError;

constexpr const char* kSpecSchema = "fortress-campaign-v1";
constexpr const char* kShardSchema = "fortress-campaign-shard-v1";
constexpr const char* kResultSchema = "fortress-campaign-result-v1";

}  // namespace

// --- Field lists -----------------------------------------------------------
//
// Doubles cross the sidecar as bit patterns (Bits), never as decimal text:
// the merge's bit-identity contract has no room for a parse round-trip to be
// "close". (Shortest round-trip formatting would in fact round-trip too,
// but bits make the intent unmissable and survive any future formatter.)

template <class V>
void describe(V& v, StoppingRule& r) {
  v.field("metric", r.metric);
  v.field("quantile", r.quantile);
  v.field("target_rel", r.target_rel);
  v.field("abs_floor", r.abs_floor);
}

template <class V>
void describe(V& v, AdaptiveConfig& a) {
  v.field("enabled", a.enabled);
  v.field("round_trials", a.round_trials);
  v.field("target_rel_ci", a.target_rel_ci);
  v.field("abs_ci_floor", a.abs_ci_floor);
  v.field("max_trials_per_cell", a.max_trials_per_cell);
  v.field("work_stealing", a.work_stealing);
  v.field("rules", a.rules);
}

template <class V>
void describe(V& v, CampaignConfig& c) {
  v.field("base_seed", c.base_seed);
  v.field("threads", c.threads);
  v.field("ci_level", c.ci_level);
  v.field("scheduler", c.scheduler);
  v.field("reuse_trial_stacks", c.reuse_trial_stacks);
  v.field("trials_per_cell", c.trials_per_cell);
  v.field("adaptive", c.adaptive);
}

template <class V>
void describe(V& v, CampaignSpec& s) {
  v.field("schema", Tag{kSpecSchema});
  v.field("name", s.name);
  v.field("description", s.description);
  describe(v, s.config);  // the config's keys sit at the spec's top level
  v.field("systems", s.systems);
  v.field("plans", s.plans);
}

template <class V>
void describe(V& v, ConfidenceInterval& ci) {
  v.field("lo_bits", Bits{ci.lo});
  v.field("hi_bits", Bits{ci.hi});
  v.field("level_bits", Bits{ci.level});
}

template <class V>
void describe(V& v, attack::AttackerStats& a) {
  v.field("direct_probes", a.direct_probes);
  v.field("indirect_probes", a.indirect_probes);
  v.field("crashes_caused", a.crashes_caused);
  v.field("compromises", a.compromises);
  v.field("keys_learned", a.keys_learned);
}

template <class V>
void describe(V& v, TrafficStats& t) {
  v.field("offered", t.offered);
  v.field("completed", t.completed);
  v.field("timed_out", t.timed_out);
  v.field("gave_up", t.gave_up);
  v.field("retries", t.retries);
  v.field("rejected_responses", t.rejected_responses);
  v.field("enqueued", t.enqueued);
  v.field("served", t.served);
  v.field("shed", t.shed);
  v.field("backpressured", t.backpressured);
  v.field("degraded", t.degraded);
  v.field("dropped_on_reboot", t.dropped_on_reboot);
  v.field("max_queue_depth", t.max_queue_depth);
  v.field("goodput_bits", Bits{t.goodput});
  v.field("latency_bins", t.latency);
}

template <class V>
void describe(V& v, core::PopulationStats& p) {
  v.field("offered", p.offered);
  v.field("completed", p.completed);
  v.field("timed_out", p.timed_out);
  v.field("gave_up", p.gave_up);
  v.field("retries", p.retries);
  v.field("rejected_responses", p.rejected_responses);
  v.field("skipped_busy", p.skipped_busy);
  v.field("latency_bins", p.latency);
}

template <class V>
void describe(V& v, CellStats& c) {
  v.field("system", c.system);
  v.field("plan_name", c.plan_name);
  v.field("trials", c.trials);
  v.field("rounds", c.rounds);
  v.field("compromised", c.compromised);
  v.field("censored", c.censored);
  v.field("lifetime", c.lifetime);
  v.field("lifetime_ci", c.lifetime_ci);
  v.field("attacker", c.attacker);
  v.field("events_executed", c.events_executed);
  v.field("blacklisted_sources", c.blacklisted_sources);
  v.field("traffic", c.traffic);
  v.field("population", c.population);
}

namespace {

/// One sidecar/report row: the cell's global index, then its stats.
struct CellRow {
  std::uint64_t& index;
  CellStats& stats;
};

template <class V>
void describe(V& v, CellRow& r) {
  v.field("index", r.index);
  describe(v, r.stats);
}

/// The rows of a sidecar or report: (index[i], stats[i]) zipped.
struct CellRows {
  std::vector<std::uint64_t>& index;
  std::vector<CellStats>& stats;

  std::size_t size() const { return index.size(); }
  void resize(std::size_t n) {
    index.resize(n);
    stats.resize(n);
  }
  CellRow operator[](std::size_t i) { return {index[i], stats[i]}; }
};

/// A report numbers its cells by position.
struct Report {
  CampaignResult& result;
  std::vector<std::uint64_t> index;
};

template <class V>
void describe(V& v, Report& r) {
  v.field("schema", Tag{kResultSchema});
  v.field("total_trials", r.result.total_trials);
  v.field("total_events", r.result.total_events);
  v.field("cells", CellRows{r.index, r.result.cells});
}

}  // namespace

template <class V>
void describe(V& v, ShardResult& r) {
  v.field("schema", Tag{kShardSchema});
  v.field("shard", r.shard);
  v.field("n_shards", r.n_shards);
  v.field("n_cells", r.n_cells);
  v.field("spec_digest", Hex{r.spec_digest});
  v.field("cells", CellRows{r.cell_indices, r.cells});
}

// --- CampaignSpec codec ---------------------------------------------------

std::string campaign_spec_to_json(const CampaignSpec& spec) {
  return encode(spec, /*compact=*/false) + '\n';  // files end with a newline
}

CampaignSpec campaign_spec_from_json(std::string_view text) {
  CampaignSpec spec;
  decode(json::parse(text), "campaign spec", spec);
  if (spec.systems.empty()) {
    throw ParseError(
        "campaign spec.systems: must list at least one system class");
  }
  if (spec.plans.empty()) {
    throw ParseError("campaign spec.plans: must list at least one plan");
  }
  for (const net::ScenarioPlan& plan : spec.plans) plan.validate();
  return spec;
}

std::uint64_t campaign_spec_digest(const CampaignSpec& spec) {
  return json::fnv1a64(campaign_spec_to_json(spec));
}

// --- Shard execution and merge --------------------------------------------

ShardResult run_campaign_shard(const std::vector<CampaignCell>& cells,
                               const CampaignConfig& config,
                               std::uint32_t shard, std::uint32_t n_shards,
                               std::uint64_t spec_digest) {
  FORTRESS_EXPECTS(n_shards >= 1);
  FORTRESS_EXPECTS(shard < n_shards);
  ShardResult result;
  result.shard = shard;
  result.n_shards = n_shards;
  result.n_cells = cells.size();
  result.spec_digest = spec_digest;
  std::vector<CampaignCell> mine;
  for (std::size_t c = shard; c < cells.size(); c += n_shards) {
    mine.push_back(cells[c]);
    result.cell_indices.push_back(c);
  }
  if (mine.empty()) return result;  // more shards than cells: empty slice
  CampaignResult r = run_campaign_subset(mine, config, result.cell_indices);
  result.cells = std::move(r.cells);
  return result;
}

CampaignResult merge_shards(const std::vector<ShardResult>& shards) {
  if (shards.empty()) throw ParseError("merge: no shard results");
  const std::uint64_t n_cells = shards[0].n_cells;
  const std::uint32_t n_shards = shards[0].n_shards;
  std::uint64_t digest = 0;
  for (const ShardResult& s : shards) {
    if (s.n_cells != n_cells) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_cells " + std::to_string(s.n_cells) +
                       ", shard " + std::to_string(shards[0].shard) +
                       " reports " + std::to_string(n_cells));
    }
    if (s.n_shards != n_shards) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " reports n_shards " + std::to_string(s.n_shards) +
                       ", expected " + std::to_string(n_shards));
    }
    if (s.spec_digest != 0) {
      if (digest != 0 && s.spec_digest != digest) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " was computed from a different spec (digest " +
                         hex64(s.spec_digest) + " vs " + hex64(digest) + ")");
      }
      digest = s.spec_digest;
    }
    if (s.cell_indices.size() != s.cells.size()) {
      throw ParseError("merge: shard " + std::to_string(s.shard) +
                       " has " + std::to_string(s.cell_indices.size()) +
                       " indices but " + std::to_string(s.cells.size()) +
                       " cell records");
    }
  }

  std::vector<const CellStats*> by_index(n_cells, nullptr);
  for (const ShardResult& s : shards) {
    for (std::size_t i = 0; i < s.cell_indices.size(); ++i) {
      const std::uint64_t idx = s.cell_indices[i];
      if (idx >= n_cells) {
        throw ParseError("merge: shard " + std::to_string(s.shard) +
                         " reports cell index " + std::to_string(idx) +
                         " outside the grid of " + std::to_string(n_cells));
      }
      if (by_index[idx] != nullptr) {
        throw ParseError("merge: cell " + std::to_string(idx) +
                         " appears in more than one shard");
      }
      by_index[idx] = &s.cells[i];
    }
  }
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    if (by_index[idx] == nullptr) {
      throw ParseError("merge: cell " + std::to_string(idx) +
                       " is covered by no shard");
    }
  }

  CampaignResult result;
  result.cells.reserve(n_cells);
  for (std::uint64_t idx = 0; idx < n_cells; ++idx) {
    result.cells.push_back(*by_index[idx]);
    result.total_trials += by_index[idx]->trials;
    result.total_events += by_index[idx]->events_executed;
  }
  return result;
}

// --- Sidecar and report codecs --------------------------------------------

std::string shard_result_to_json(const ShardResult& result) {
  FORTRESS_EXPECTS(result.cell_indices.size() == result.cells.size());
  return encode(result, /*compact=*/false) + '\n';
}

ShardResult shard_result_from_json(std::string_view text) {
  ShardResult r;
  decode(json::parse(text), "shard result", r);
  if (r.n_shards < 1 || r.shard >= r.n_shards) {
    throw ParseError("shard result: shard " + std::to_string(r.shard) +
                     " outside n_shards " + std::to_string(r.n_shards));
  }
  for (std::size_t i = 1; i < r.cell_indices.size(); ++i) {
    if (r.cell_indices[i] <= r.cell_indices[i - 1]) {
      throw ParseError("shard result.cells[" + std::to_string(i) +
                       "]: cell indices must be strictly ascending");
    }
  }
  return r;
}

std::string campaign_result_to_json(const CampaignResult& result) {
  Report report{const_cast<CampaignResult&>(result),
                std::vector<std::uint64_t>(result.cells.size())};
  std::iota(report.index.begin(), report.index.end(), std::uint64_t{0});
  return encode(report, /*compact=*/false) + '\n';
}

}  // namespace fortress::scenario
