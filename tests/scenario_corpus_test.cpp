// Corpus fixture regression suite: every committed scenarios/*.json must
// decode strictly, re-encode byte-identically, match its pinned semantic
// digest, and reproduce its golden campaign aggregates bit-for-bit. This is
// the in-binary twin of the `fortress_corpus_check` ctest lane (which runs
// `plan_tool check` via tools/corpus_check.py) — the duplication is
// deliberate: the lane survives test-binary refactors, this suite gives
// gtest-grade diagnostics per entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/campaign.hpp"
#include "scenario/corpus.hpp"
#include "scenario/plan_codec.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

namespace fortress::scenario {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(FORTRESS_SCENARIO_DIR)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

// The corpus is a committed fixture set: losing a member silently would
// disarm the regression gate, so the roster itself is pinned.
TEST(ScenarioCorpusTest, RosterIsComplete) {
  std::set<std::string> names;
  for (const auto& path : corpus_files()) names.insert(path.stem().string());
  for (const char* required :
       {"partition_quorum_loss", "partition_proxy_islands", "outage_waves",
        "heavy_tail_latency", "diurnal_churn"}) {
    EXPECT_TRUE(names.count(required)) << "missing corpus entry " << required;
  }
}

TEST(ScenarioCorpusTest, EveryEntryIsSound) {
  const auto files = corpus_files();
  ASSERT_FALSE(files.empty()) << "no corpus under " FORTRESS_SCENARIO_DIR;
  for (const auto& path : files) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    CorpusEntry entry;
    ASSERT_NO_THROW(entry = corpus_entry_from_json(text));
    // File stem, wrapper name and plan name agree.
    EXPECT_EQ(entry.name, path.stem().string());
    EXPECT_EQ(entry.name, entry.plan.name);
    // check_corpus_entry covers all three pins: semantic digest, canonical
    // byte form, and the golden campaign rows (re-run bit-for-bit).
    for (const std::string& problem : check_corpus_entry(entry, text)) {
      ADD_FAILURE() << problem;
    }
  }
}

// The golden rows must hold under the campaign determinism contract, not
// just under the capture configuration: re-run each entry's campaign with
// the OPPOSITE isolation mode and multiple threads and demand the exact
// same aggregates the (1-thread, pooled) capture pinned.
TEST(ScenarioCorpusTest, GoldenRowsHoldUnderAlternateExecution) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const CorpusEntry entry = corpus_entry_from_json(slurp(path));
    ASSERT_EQ(entry.golden.size(), entry.systems.size());

    std::vector<CampaignCell> cells;
    for (model::SystemKind s : entry.systems) cells.push_back({s, entry.plan});
    CampaignConfig cfg;
    cfg.trials_per_cell = entry.trials_per_cell;
    cfg.base_seed = entry.base_seed;
    cfg.threads = 4;
    cfg.reuse_trial_stacks = false;
    const CampaignResult result = run_campaign(cells, cfg);

    for (std::size_t i = 0; i < entry.golden.size(); ++i) {
      SCOPED_TRACE("cell " + model::to_string(entry.systems[i]));
      const CorpusGoldenCell& want = entry.golden[i];
      const CellStats& got = result.cells[i];
      EXPECT_EQ(got.trials, want.trials);
      EXPECT_EQ(got.compromised, want.compromised);
      EXPECT_EQ(got.censored, want.censored);
      std::uint64_t mean_bits = 0;
      const double mean = got.mean_lifetime();
      static_assert(sizeof mean == sizeof mean_bits);
      std::memcpy(&mean_bits, &mean, sizeof mean_bits);
      EXPECT_EQ(mean_bits, want.lifetime_mean_bits);
      EXPECT_EQ(got.attacker.direct_probes, want.direct_probes);
      EXPECT_EQ(got.attacker.indirect_probes, want.indirect_probes);
      EXPECT_EQ(got.events_executed, want.events_executed);
      EXPECT_EQ(got.blacklisted_sources, want.blacklisted_sources);
      EXPECT_EQ(got.traffic.latency.fingerprint(), want.traffic_fingerprint);
      EXPECT_EQ(got.population.latency.fingerprint(),
                want.population_fingerprint);
    }
  }
}

// Strict-decode errors name the offending field by its full path, down to
// the golden row.
TEST(ScenarioCorpusTest, StrictDecodeNamesTheOffendingField) {
  std::string bad =
      slurp(std::filesystem::path(FORTRESS_SCENARIO_DIR) / "outage_waves.json");
  const std::size_t at = bad.find("\"population_fingerprint\"");
  ASSERT_NE(at, std::string::npos);
  bad.insert(at, "\"extra\": 1, ");
  try {
    corpus_entry_from_json(bad);
    FAIL() << "accepted an unknown golden-row key";
  } catch (const json::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "corpus entry.golden[0]: unknown key \"extra\""),
              std::string::npos)
        << e.what();
  }
}

// Re-encoding an entry through the corpus codec is a fixed point: the
// committed byte form IS the canonical form (no normalization on commit).
TEST(ScenarioCorpusTest, CommittedFilesAreCanonicalFixedPoints) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    const CorpusEntry entry = corpus_entry_from_json(text);
    EXPECT_EQ(corpus_entry_to_json(entry), text);
    EXPECT_EQ(plan_digest_string(entry.plan), entry.digest);
  }
}

}  // namespace
}  // namespace fortress::scenario
