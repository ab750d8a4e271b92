#include "scenario/corpus.hpp"

#include <cstring>

#include "scenario/codec.hpp"
#include "scenario/plan_codec.hpp"

namespace fortress::scenario {

using json::ParseError;

constexpr const char* kSchemaTag = "fortress-scenario-v1";

template <class V>
void describe(V& v, CorpusGoldenCell& g) {
  v.field("system", g.system);
  v.field("trials", g.trials);
  v.field("compromised", g.compromised);
  v.field("censored", g.censored);
  v.field("lifetime_mean_bits", Hex{g.lifetime_mean_bits});
  v.field("direct_probes", g.direct_probes);
  v.field("indirect_probes", g.indirect_probes);
  v.field("events_executed", g.events_executed);
  v.field("blacklisted_sources", g.blacklisted_sources);
  v.field("traffic_fingerprint", Hex{g.traffic_fingerprint});
  v.field("population_fingerprint", Hex{g.population_fingerprint});
}

template <class V>
void describe(V& v, CorpusEntry& e) {
  v.field("schema", Tag{kSchemaTag});
  v.field("name", e.name);
  v.field("description", e.description);
  v.field("base_seed", e.base_seed);
  v.field("trials_per_cell", e.trials_per_cell);
  v.field("systems", e.systems);
  v.field("digest", e.digest);
  v.field("plan", e.plan);
  v.field("golden", e.golden);
}

model::SystemKind system_kind_from_string(const std::string& s,
                                          const std::string& ctx) {
  return parse_enum<model::SystemKind>(s, ctx);
}

CorpusEntry corpus_entry_from_json(std::string_view text) {
  CorpusEntry e;
  decode(json::parse(text), "corpus entry", e);
  const std::string ctx = "corpus entry";
  if (e.trials_per_cell < 1) {
    throw ParseError(ctx + ".trials_per_cell: must be >= 1");
  }
  if (e.systems.empty()) {
    throw ParseError(ctx + ".systems: must list at least one system class");
  }
  e.plan.validate();
  if (e.plan.name != e.name) {
    throw ParseError(ctx + ": name \"" + e.name +
                     "\" does not match plan.name \"" + e.plan.name + "\"");
  }
  if (!e.golden.empty() && e.golden.size() != e.systems.size()) {
    throw ParseError(ctx + ": golden has " + std::to_string(e.golden.size()) +
                     " rows but systems lists " +
                     std::to_string(e.systems.size()) + " classes");
  }
  return e;
}

std::string corpus_entry_to_json(const CorpusEntry& entry) {
  return encode(entry, /*compact=*/false) + '\n';  // files end with a newline
}

std::vector<CorpusGoldenCell> capture_corpus_golden(const CorpusEntry& entry) {
  std::vector<CampaignCell> cells;
  for (model::SystemKind s : entry.systems) cells.push_back({s, entry.plan});
  CampaignConfig cfg;
  cfg.trials_per_cell = entry.trials_per_cell;
  cfg.base_seed = entry.base_seed;
  cfg.threads = 1;
  const CampaignResult result = run_campaign(cells, cfg);

  std::vector<CorpusGoldenCell> rows;
  for (const CellStats& c : result.cells) {
    CorpusGoldenCell g;
    g.system = c.system;
    g.trials = c.trials;
    g.compromised = c.compromised;
    g.censored = c.censored;
    double mean = c.mean_lifetime();
    std::memcpy(&g.lifetime_mean_bits, &mean, sizeof mean);
    g.direct_probes = c.attacker.direct_probes;
    g.indirect_probes = c.attacker.indirect_probes;
    g.events_executed = c.events_executed;
    g.blacklisted_sources = c.blacklisted_sources;
    g.traffic_fingerprint = c.traffic.latency.fingerprint();
    g.population_fingerprint = c.population.latency.fingerprint();
    rows.push_back(g);
  }
  return rows;
}

std::vector<std::string> check_corpus_entry(const CorpusEntry& entry,
                                            std::string_view original_text) {
  std::vector<std::string> problems;

  const std::string expect_digest = plan_digest_string(entry.plan);
  if (entry.digest != expect_digest) {
    problems.push_back("digest drift: file pins " + entry.digest +
                       " but the plan encodes to " + expect_digest);
  }

  const std::string reencoded = corpus_entry_to_json(entry);
  if (reencoded != original_text) {
    problems.push_back(
        "canonical-form drift: re-encoding the entry does not reproduce the "
        "file bytes (run `plan_tool capture` and commit the output)");
  }

  if (entry.golden.empty()) {
    problems.push_back("no golden rows: run `plan_tool capture`");
    return problems;
  }

  const std::vector<CorpusGoldenCell> fresh = capture_corpus_golden(entry);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const CorpusGoldenCell& want = entry.golden[i];
    const CorpusGoldenCell& got = fresh[i];
    const std::string cell =
        "golden[" + std::to_string(i) + "] (" + model::to_string(got.system) +
        ")";
    auto pin = [&](const char* field, std::uint64_t w, std::uint64_t g) {
      if (w != g) {
        problems.push_back(cell + "." + field + ": pinned " +
                           std::to_string(w) + ", re-run produced " +
                           std::to_string(g));
      }
    };
    if (want.system != got.system) {
      problems.push_back(cell + ": system order mismatch");
      continue;
    }
    pin("trials", want.trials, got.trials);
    pin("compromised", want.compromised, got.compromised);
    pin("censored", want.censored, got.censored);
    pin("lifetime_mean_bits", want.lifetime_mean_bits,
        got.lifetime_mean_bits);
    pin("direct_probes", want.direct_probes, got.direct_probes);
    pin("indirect_probes", want.indirect_probes, got.indirect_probes);
    pin("events_executed", want.events_executed, got.events_executed);
    pin("blacklisted_sources", want.blacklisted_sources,
        got.blacklisted_sources);
    pin("traffic_fingerprint", want.traffic_fingerprint,
        got.traffic_fingerprint);
    pin("population_fingerprint", want.population_fingerprint,
        got.population_fingerprint);
  }
  return problems;
}

}  // namespace fortress::scenario
