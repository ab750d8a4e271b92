// Exact work gate for the crypto plane: SHA-256 blocks compressed per
// completed request on one S2 trial of the committed diurnal_churn plan
// (open-loop traffic plus a 2048-client population, every response signed
// by a server, over-signed by a proxy and verified by the client).
//
// The count comes from crypto::kernel::blocks_compressed(), a per-thread
// counter of compressed blocks, so it is exact and does not depend on the
// host or the SHA tier. The trial runs on a fresh std::thread: its HMAC
// memo (hmac.hpp) starts empty, so the figure does not depend on which
// tests ran before. A change that makes the stack hash more per request,
// or that stops the memo from serving a verify its signer just computed,
// fails the ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "crypto/sha256_kernel.hpp"
#include "scenario/campaign.hpp"
#include "scenario/corpus.hpp"

#ifndef FORTRESS_SCENARIO_DIR
#error "build defines FORTRESS_SCENARIO_DIR (see CMakeLists.txt)"
#endif

namespace fortress::scenario {
namespace {

// Measured on this trial: 116,048 blocks for 4662 completed requests (24.9
// per request) with the memo; 287,537 (61.7 per request) when every HMAC
// was computed. The ceiling leaves ~8% headroom above the measured figure.
constexpr double kMaxBlocksPerCompletedRequest = 27.0;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CryptoWorkBudgetTest, DiurnalChurnS2ShaBlocksPerCompletedRequest) {
  const net::ScenarioPlan plan =
      corpus_entry_from_json(slurp(FORTRESS_SCENARIO_DIR "/diurnal_churn.json"))
          .plan;
  std::uint64_t blocks = 0;
  TrialOutcome outcome;
  std::thread worker([&] {
    const std::uint64_t before = crypto::kernel::blocks_compressed();
    outcome = run_trial(model::SystemKind::S2, plan, trial_seed(1, 4, 0));
    blocks = crypto::kernel::blocks_compressed() - before;
  });
  worker.join();

  const std::uint64_t completed =
      outcome.traffic.completed + outcome.population.completed;
  ASSERT_GT(completed, 0u);
  const double per_request =
      static_cast<double>(blocks) / static_cast<double>(completed);
  RecordProperty("blocks", std::to_string(blocks));
  RecordProperty("completed", std::to_string(completed));
  EXPECT_LE(per_request, kMaxBlocksPerCompletedRequest)
      << blocks << " SHA-256 blocks for " << completed
      << " completed requests";
}

}  // namespace
}  // namespace fortress::scenario
