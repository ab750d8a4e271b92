// perfbench — the repository benchmark: live-campaign throughput.
//
//   perfbench --workload attack_horizon|screening_sweep|service_load
//             --seed N --seconds S --trace 0|1
//             [--size full|tiny] [--pins FILE] [--trace-out FILE]
//
// A campaign is a batch job: the benchmark builds a fixed grid from the seed
// (the seed is the campaign base seed; the grid shape is fixed per
// workload), submits it from this one process through the public campaign
// API and waits for the answer, at 1 thread and at min(4, nproc) pool
// threads. perfbench/README.md describes the workloads and metrics.
//
// --trace 0 measures the end-to-end metrics: set-up time (median of several
// set-ups), trials/s at N threads and at 1 thread (medians of alternating
// repetitions over --seconds), and peak RSS.
// --trace 1 replays the campaign's exact (cell, trial, seed) set on one
// thread with spans around each call into the library, and reports the
// per-layer metrics; the spans go to --trace-out as Chrome trace JSON.
//
// Every run checks the simulated results, which are deterministic for a
// seed: every repetition must reproduce the first 1-thread run bit for bit
// (1 thread vs N threads), the traced replay must sum to the campaign's
// CellStats, and at the pin seed the campaign fingerprint (and, for the
// sharded workload, the merged report bytes) must equal the pins file. A
// cell that fails any check counts in `failed`; any failure makes the exit
// code non-zero.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":<cells>,"failed":<cells>,"metrics":{..}}
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/live_system.hpp"
#include "crypto/sha256_kernel.hpp"
#include "exec/thread_pool.hpp"
#include "scenario/campaign.hpp"
#include "scenario/corpus.hpp"
#include "scenario/differential.hpp"
#include "scenario/shard.hpp"
#include "trace.hpp"

namespace {

using namespace fortress;
using namespace fortress::scenario;
using perfbench::now_ns;
using perfbench::Scope;
using perfbench::Tracer;

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string pins_path;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--size full|tiny] [--pins FILE] "
               "[--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
      } else if (key == "--size") {
        if (val != "full" && val != "tiny") usage("--size takes full or tiny");
        a.tiny = val == "tiny";
      } else if (key == "--pins") {
        a.pins_path = val;
      } else if (key == "--trace-out") {
        a.trace_out = val;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Host fingerprint: numbers from different hosts are never comparable.
// ---------------------------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string host_json(unsigned threads) {
  std::ostringstream os;
  os << "{\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":"
     << std::thread::hardware_concurrency() << ",\"threads\":" << threads
     << ",\"sha_tier\":\""
     << crypto::kernel::tier_name(crypto::kernel::active_tier())
     << "\",\"scheduler\":\"" << sim::to_string(sim::default_scheduler_kind())
     << "\",\"compiler\":\"" << json_escape(PERFBENCH_COMPILER)
     << "\",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\",\"flags\":\"" << json_escape(PERFBENCH_CXX_FLAGS) << "\"}";
  return os.str();
}

/// This process's peak resident set (VmHWM). getrusage's ru_maxrss is not
/// used: it keeps the parent's pre-exec high-water mark.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Moves the calling thread across the CPUs it may run on, one per call to
/// next(), and restores its original CPU set when destroyed. On a shared
/// host each core has its own slow and fast phases; a single thread left on
/// one core would inherit that core's phase for the whole run, while one
/// rotated over every core samples them all, as the N-thread runs do.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Lets the thread run on its original CPU set again; the turn is kept.
  void restore() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads: inputs made from the seed, then the timed set-up.
// ---------------------------------------------------------------------------

enum class Kind { AttackHorizon, ScreeningSweep, ServiceLoad };

Kind kind_from_name(const std::string& name) {
  if (name == "attack_horizon") return Kind::AttackHorizon;
  if (name == "screening_sweep") return Kind::ScreeningSweep;
  if (name == "service_load") return Kind::ServiceLoad;
  usage("unknown workload " + name);
}

const std::vector<std::string> kServicePlans = {
    "scenarios/heavy_tail_latency.json", "scenarios/partition_quorum_loss.json",
    "scenarios/diurnal_churn.json"};

/// What the benchmark hands the library: a campaign spec document, or (for
/// service_load) committed corpus files plus the campaign budget.
struct Inputs {
  std::string spec_text;
  std::vector<std::string> corpus_paths;
  CampaignConfig corpus_config;
};

CampaignConfig fixed_config(std::uint64_t seed, std::uint64_t trials) {
  CampaignConfig cfg;
  cfg.base_seed = seed;
  cfg.trials_per_cell = trials;
  return cfg;
}

// The paper's experiment: S0/S1/S2 across keyspace (chi) and indirect
// probing fraction (kappa) over a 40-step horizon, plus the committed
// outage_waves plan for crash/recover faults.
Inputs attack_horizon_inputs(std::uint64_t seed, bool tiny) {
  CampaignSpec spec;
  spec.name = "attack_horizon";
  spec.description = "perfbench: S0/S1/S2 x chi x kappa, 40-step horizon";
  spec.config = fixed_config(seed, tiny ? 2 : 72);
  spec.systems = {model::SystemKind::S0, model::SystemKind::S1,
                  model::SystemKind::S2};
  for (std::uint64_t chi : {128u, 256u, 512u}) {
    for (double kappa : {0.25, 0.5}) {
      net::ScenarioPlan plan;
      plan.name = "horizon_chi" + std::to_string(chi) +
                  (kappa == 0.25 ? "_k025" : "_k050");
      plan.keyspace = chi;
      plan.attack.probes_per_step = 8.0;
      plan.attack.indirect_fraction = kappa;
      plan.horizon_steps = 40;
      plan.latency = net::LatencySpec::uniform(0.01, 0.02);
      spec.plans.push_back(plan);
    }
  }
  spec.plans.push_back(
      corpus_entry_from_json(slurp("scenarios/outage_waves.json")).plan);
  return {campaign_spec_to_json(spec), {}, {}};
}

// A wide triage sweep: 1-step horizon, arenas rebuilt at every shape change
// (n_proxies), adaptive stopping on two metrics with absolute floors.
Inputs screening_sweep_inputs(std::uint64_t seed, bool tiny) {
  CampaignSpec spec;
  spec.name = "screening_sweep";
  spec.description = "perfbench: 1-step triage sweep, adaptive stopping";
  spec.config.base_seed = seed;
  spec.config.adaptive.enabled = true;
  spec.config.adaptive.round_trials = tiny ? 4 : 32;
  spec.config.adaptive.max_trials_per_cell = tiny ? 8 : 512;
  spec.config.adaptive.work_stealing = false;
  StoppingRule lifetime;
  lifetime.metric = StoppingRule::Metric::MeanLifetime;
  lifetime.target_rel = 0.1;
  lifetime.abs_floor = 0.05;
  StoppingRule compromise;
  compromise.metric = StoppingRule::Metric::CompromiseProbability;
  compromise.target_rel = 0.1;
  compromise.abs_floor = 0.03;
  spec.config.adaptive.rules = {lifetime, compromise};
  spec.systems = {model::SystemKind::S0, model::SystemKind::S1,
                  model::SystemKind::S2};
  for (std::uint64_t chi : {64u, 128u, 256u, 512u}) {
    for (int proxies : {2, 3, 5}) {
      net::ScenarioPlan plan;
      plan.name = "screen_chi" + std::to_string(chi) + "_p" +
                  std::to_string(proxies);
      plan.keyspace = chi;
      plan.n_proxies = proxies;
      plan.horizon_steps = 1;
      plan.step_duration = 5.0;
      plan.attack.start_time = 1.0;
      plan.attack.probes_per_step = 8.0;
      plan.latency = net::LatencySpec::uniform(0.01, 0.02);
      spec.plans.push_back(plan);
    }
  }
  return {campaign_spec_to_json(spec), {}, {}};
}

// Request traffic over the replicated service under attack: three committed
// corpus plans, each swept over the systems its corpus entry lists.
Inputs service_load_inputs(std::uint64_t seed, bool tiny) {
  return {"", kServicePlans, fixed_config(seed, tiny ? 1 : 8)};
}

Inputs make_inputs(Kind kind, std::uint64_t seed, bool tiny) {
  switch (kind) {
    case Kind::AttackHorizon: return attack_horizon_inputs(seed, tiny);
    case Kind::ScreeningSweep: return screening_sweep_inputs(seed, tiny);
    case Kind::ServiceLoad: return service_load_inputs(seed, tiny);
  }
  return {};
}

struct Grid {
  std::vector<CampaignCell> cells;
  CampaignConfig config;
  /// 0: one run_campaign call. >0: the in-process shard path with this many
  /// shards (sidecar encode/decode, merge_shards, report encode).
  std::uint32_t shards = 0;
  std::uint64_t spec_digest = 0;
};

struct SetupResult {
  Grid grid;
  double seconds = 0.0;
  double decode_seconds = 0.0;
};

/// Decode the spec or corpus files (plans are validated on decode), start
/// the shared pool, and run one warm-up trial per cell.
SetupResult setup(Kind kind, const Inputs& in, unsigned threads,
                  Tracer& tr) {
  Scope phase(tr, "setup");
  SetupResult out;
  const std::int64_t t0 = now_ns();
  {
    Scope s(tr, kind == Kind::ServiceLoad ? "corpus_entry_from_json"
                                          : "campaign_spec_from_json");
    if (kind == Kind::ServiceLoad) {
      out.grid.config = in.corpus_config;
      for (const std::string& path : in.corpus_paths) {
        const CorpusEntry entry = corpus_entry_from_json(slurp(path));
        for (model::SystemKind system : entry.systems) {
          out.grid.cells.push_back(CampaignCell{system, entry.plan});
        }
      }
    } else {
      const CampaignSpec spec = campaign_spec_from_json(in.spec_text);
      out.grid.cells = spec.cells();
      out.grid.config = spec.config;
      if (kind == Kind::ScreeningSweep) {
        out.grid.shards = threads;
        out.grid.spec_digest = campaign_spec_digest(spec);
      }
    }
  }
  out.decode_seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  {
    Scope s(tr, "ThreadPool::shared");
    exec::ThreadPool::shared();
  }
  {
    // One thread: the warm-up's cost is then the cells' own, not the
    // host's latency in waking idle CPUs.
    Scope s(tr, "warmup_run_campaign");
    CampaignConfig warm = fixed_config(out.grid.config.base_seed, 1);
    warm.threads = 1;
    run_campaign(out.grid.cells, warm);
  }
  out.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return out;
}

// ---------------------------------------------------------------------------
// One repetition of the workload through the public campaign API.
// ---------------------------------------------------------------------------

struct CodecTimes {
  double encode = 0, decode = 0, merge = 0, report = 0;
  std::size_t sidecar_bytes = 0;
};

struct RunOutput {
  CampaignResult result;
  std::vector<ShardResult> shards;  ///< what the codec carried
  std::uint64_t report_hash = 0;    ///< FNV-1a of the merged report bytes
  CodecTimes codec;
};

/// Sidecar encode -> decode -> merge_shards -> report encode.
RunOutput codec_roundtrip(std::vector<ShardResult> shards, Tracer& tr) {
  RunOutput out;
  std::vector<std::string> texts;
  std::int64_t t = now_ns();
  for (const ShardResult& r : shards) {
    Scope s(tr, "shard_result_to_json");
    texts.push_back(shard_result_to_json(r));
    out.codec.sidecar_bytes += texts.back().size();
  }
  out.codec.encode = static_cast<double>(now_ns() - t) * 1e-9;
  std::vector<ShardResult> decoded;
  t = now_ns();
  for (const std::string& text : texts) {
    Scope s(tr, "shard_result_from_json");
    decoded.push_back(shard_result_from_json(text));
  }
  out.codec.decode = static_cast<double>(now_ns() - t) * 1e-9;
  t = now_ns();
  {
    Scope s(tr, "merge_shards");
    out.result = merge_shards(decoded);
  }
  out.codec.merge = static_cast<double>(now_ns() - t) * 1e-9;
  t = now_ns();
  std::string report;
  {
    Scope s(tr, "campaign_result_to_json");
    report = campaign_result_to_json(out.result);
  }
  out.codec.report = static_cast<double>(now_ns() - t) * 1e-9;
  out.report_hash = fnv1a(report);
  out.shards = std::move(shards);
  return out;
}

/// A whole campaign result as the single sidecar of a 1-shard partition.
ShardResult as_one_shard(const CampaignResult& r) {
  ShardResult s;
  s.n_cells = r.cells.size();
  s.cells = r.cells;
  for (std::uint64_t i = 0; i < s.n_cells; ++i) s.cell_indices.push_back(i);
  return s;
}

RunOutput run_grid(const Grid& grid, unsigned threads, Tracer& tr) {
  CampaignConfig cfg = grid.config;
  cfg.threads = threads;
  if (grid.shards == 0) {
    RunOutput out;
    Scope s(tr, "run_campaign");
    out.result = run_campaign(grid.cells, cfg);
    return out;
  }
  std::vector<ShardResult> shards;
  for (std::uint32_t i = 0; i < grid.shards; ++i) {
    Scope s(tr, "run_campaign_shard");
    shards.push_back(run_campaign_shard(grid.cells, cfg, i, grid.shards,
                                        grid.spec_digest));
  }
  return codec_roundtrip(std::move(shards), tr);
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

std::uint64_t cell_fingerprint(const CellStats& c) {
  CampaignResult one;
  one.cells = {c};
  one.total_trials = c.trials;
  one.total_events = c.events_executed;
  return campaign_fingerprint(one);
}

struct Pins {
  bool active = false;
  std::uint64_t campaign = 0;
  std::uint64_t report = 0;  ///< 0: the workload has no report to pin
  std::vector<std::uint64_t> cells;
};

std::uint64_t parse_hex(const json::Value& v, const std::string& ctx) {
  const std::string& s = v.as_string(ctx);
  if (s.size() != 18 || s.compare(0, 2, "0x") != 0) {
    throw json::ParseError(ctx + ": expected 0x + 16 hex digits");
  }
  return std::stoull(s.substr(2), nullptr, 16);
}

/// Pins apply only at the pins file's seed; the key is "<workload>/<size>".
Pins load_pins(const Args& a) {
  Pins p;
  if (a.pins_path.empty()) return p;
  const json::Value doc = json::parse(slurp(a.pins_path));
  if (doc.required("seed", "pins").as_u64("pins.seed") != a.seed) return p;
  const std::string key = a.workload + (a.tiny ? "/tiny" : "/full");
  const json::Value* entry = doc.required("pins", "pins").get(key);
  if (entry == nullptr) return p;
  p.active = true;
  p.campaign = parse_hex(entry->required("campaign", key), key + ".campaign");
  if (const json::Value* r = entry->get("report")) {
    p.report = parse_hex(*r, key + ".report");
  }
  for (const json::Value& c : entry->required("cells", key).as_array(key)) {
    p.cells.push_back(parse_hex(c, key + ".cells[]"));
  }
  return p;
}

/// Collects failed cells and the reasons, against the first 1-thread run.
class Checker {
 public:
  explicit Checker(std::size_t n_cells) : n_cells_(n_cells) {}

  bool has_reference() const { return has_ref_; }
  const RunOutput& reference() const { return ref_; }

  void set_reference(RunOutput ref) {
    has_ref_ = true;
    ref_ = std::move(ref);
    ref_fp_ = campaign_fingerprint(ref_.result);
    ref_report_ = ref_.report_hash;
    for (const CellStats& c : ref_.result.cells) {
      ref_cells_.push_back(cell_fingerprint(c));
    }
  }

  void compare(const RunOutput& run, const char* what) {
    if (run.result.cells.size() != n_cells_) {
      fail_all(std::string(what) + ": wrong cell count");
      return;
    }
    for (std::size_t c = 0; c < n_cells_; ++c) {
      if (cell_fingerprint(run.result.cells[c]) != ref_cells_[c]) {
        fail(c, std::string(what) + ": cell " + std::to_string(c) +
                    " differs from the first 1-thread run");
      }
    }
    if (run.report_hash != ref_report_) {
      fail_all(std::string(what) + ": merged report bytes differ");
    }
  }

  void check_pins(const Pins& p) {
    if (!p.active) return;
    if (p.cells.size() != n_cells_) {
      fail_all("pins list " + std::to_string(p.cells.size()) +
               " cells, the grid has " + std::to_string(n_cells_));
      return;
    }
    bool cells_match = true;
    for (std::size_t c = 0; c < n_cells_; ++c) {
      if (ref_cells_[c] != p.cells[c]) {
        cells_match = false;
        fail(c, "cell " + std::to_string(c) + " fingerprint " +
                    hex(ref_cells_[c]) + " != pinned " + hex(p.cells[c]));
      }
    }
    if (cells_match && ref_fp_ != p.campaign) {
      fail_all("campaign fingerprint " + hex(ref_fp_) + " != pinned " +
               hex(p.campaign));
    }
    if (p.report != 0 && ref_report_ != p.report) {
      fail_all("merged report hash " + hex(ref_report_) + " != pinned " +
               hex(p.report));
    }
  }

  void fail(std::size_t cell, const std::string& why) {
    failed_.insert(cell);
    note(why);
  }
  void fail_all(const std::string& why) {
    for (std::size_t c = 0; c < n_cells_; ++c) failed_.insert(c);
    note(why);
  }

  std::size_t failed() const { return failed_.size(); }
  std::uint64_t reference_fingerprint() const { return ref_fp_; }
  std::uint64_t reference_report() const { return ref_report_; }
  const std::vector<std::uint64_t>& reference_cells() const {
    return ref_cells_;
  }

 private:
  void note(const std::string& why) {
    if (notes_++ < 20) std::printf("CHECK FAILED: %s\n", why.c_str());
  }

  std::size_t n_cells_;
  bool has_ref_ = false;
  RunOutput ref_;
  std::uint64_t ref_fp_ = 0;
  std::uint64_t ref_report_ = 0;
  std::vector<std::uint64_t> ref_cells_;
  std::set<std::size_t> failed_;
  int notes_ = 0;
};

// ---------------------------------------------------------------------------
// Traced replay: the campaign's exact (cell, trial, seed) set, in its task
// order, on one TrialArena.
// ---------------------------------------------------------------------------

struct Task {
  std::uint32_t cell;
  std::uint64_t trial;
};

/// Rounds grant every open cell round_trials (the last capped by the
/// budget); a sharded run executes shard after shard, each over the cells
/// with index % shards == shard.
std::vector<Task> campaign_tasks(const Grid& g, const CampaignResult& r) {
  const std::uint64_t rt = g.config.adaptive.enabled
                               ? g.config.adaptive.round_trials
                               : g.config.trials_per_cell;
  const std::uint32_t groups = std::max<std::uint32_t>(g.shards, 1);
  std::vector<Task> tasks;
  for (std::uint32_t s = 0; s < groups; ++s) {
    std::uint64_t rounds = 0;
    for (std::size_t c = s; c < r.cells.size(); c += groups) {
      rounds = std::max(rounds, r.cells[c].rounds);
    }
    for (std::uint64_t round = 0; round < rounds; ++round) {
      for (std::size_t c = s; c < r.cells.size(); c += groups) {
        const CellStats& cs = r.cells[c];
        if (round >= cs.rounds) continue;
        const std::uint64_t end = std::min(cs.trials, (round + 1) * rt);
        for (std::uint64_t t = round * rt; t < end; ++t) {
          tasks.push_back({static_cast<std::uint32_t>(c), t});
        }
      }
    }
  }
  return tasks;
}

/// The per-cell sums the replay must reproduce exactly.
struct Sums {
  std::uint64_t trials = 0, compromised = 0, events = 0, direct = 0,
                indirect = 0, crashes = 0, compromises = 0, keys = 0,
                blacklisted = 0, offered = 0, completed = 0, timed_out = 0,
                gave_up = 0, retries = 0, enqueued = 0, served = 0, shed = 0,
                degraded = 0, latency = 0, pop_offered = 0,
                pop_completed = 0, pop_skipped = 0, pop_latency = 0;
  /// Set for a whole cell only. The running mean is order-sensitive in
  /// floating point, so equal bits also check that the replay added the
  /// cell's trials in the campaign's order.
  std::uint64_t lifetime_mean_bits = 0;

  bool operator==(const Sums&) const = default;

  static Sums of(const CellStats& c) {
    Sums s = counters(c);
    s.trials = c.trials;
    s.compromised = c.compromised;
    s.lifetime_mean_bits = mean_bits(c.lifetime);
    return s;
  }

  static Sums of(const TrialOutcome& o) {
    Sums s = counters(o);
    s.trials = 1;
    s.compromised = o.compromised ? 1 : 0;
    return s;
  }

  /// Sums every counter; lifetime_mean_bits is left alone.
  Sums& operator+=(const Sums& o) {
    trials += o.trials, compromised += o.compromised, events += o.events;
    direct += o.direct, indirect += o.indirect, crashes += o.crashes;
    compromises += o.compromises, keys += o.keys;
    blacklisted += o.blacklisted;
    offered += o.offered, completed += o.completed;
    timed_out += o.timed_out, gave_up += o.gave_up, retries += o.retries;
    enqueued += o.enqueued, served += o.served, shed += o.shed;
    degraded += o.degraded, latency += o.latency;
    pop_offered += o.pop_offered, pop_completed += o.pop_completed;
    pop_skipped += o.pop_skipped, pop_latency += o.pop_latency;
    return *this;
  }

  static std::uint64_t mean_bits(const RunningStats& r) {
    if (r.count() == 0) return 0;
    const double m = r.mean();
    std::uint64_t u = 0;
    std::memcpy(&u, &m, sizeof u);
    return u;
  }

 private:
  /// The counters CellStats and TrialOutcome share by name.
  template <typename T>
  static Sums counters(const T& x) {
    Sums s;
    s.events = x.events_executed;
    s.direct = x.attacker.direct_probes, s.indirect = x.attacker.indirect_probes;
    s.crashes = x.attacker.crashes_caused;
    s.compromises = x.attacker.compromises, s.keys = x.attacker.keys_learned;
    s.blacklisted = x.blacklisted_sources;
    s.offered = x.traffic.offered, s.completed = x.traffic.completed;
    s.timed_out = x.traffic.timed_out, s.gave_up = x.traffic.gave_up;
    s.retries = x.traffic.retries, s.enqueued = x.traffic.enqueued;
    s.served = x.traffic.served, s.shed = x.traffic.shed;
    s.degraded = x.traffic.degraded, s.latency = x.traffic.latency.count();
    s.pop_offered = x.population.offered;
    s.pop_completed = x.population.completed;
    s.pop_skipped = x.population.skipped_busy;
    s.pop_latency = x.population.latency.count();
    return s;
  }
};

// ---------------------------------------------------------------------------
// Metric output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The highest of a fixed ladder of percentiles with at least ten samples
/// beyond it (p50 when there are too few samples for any).
std::pair<double, double> tail_percentile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  double pct = 50.0;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) {
      pct = p;
      break;
    }
  }
  if (v.empty()) return {pct, 0.0};
  const std::size_t idx = std::min<std::size_t>(
      v.size() - 1,
      static_cast<std::size_t>(std::ceil(n * pct / 100.0)) - 1);
  return {pct, v[idx]};
}

// ---------------------------------------------------------------------------
// The two modes
// ---------------------------------------------------------------------------

/// Repetitions of the whole workload at `threads`, each checked against the
/// reference, for `seconds` (at least one). A repetition starts only when
/// the previous one's duration still fits before the deadline, so a block
/// of long repetitions does not overrun its share. At 1 thread each
/// repetition runs on the next CPU of `rotation`. The first repetition of
/// the process at each thread count is an untimed warm-up, and the first
/// one overall becomes the check reference.
void timed_block(const Grid& grid, unsigned threads, double seconds,
                 CpuRotation& rotation, Checker& check, Tracer& tr,
                 std::vector<double>& times) {
  const char* what =
      threads == 1 ? "1-thread repetition" : "N-thread repetition";
  if (times.empty()) {
    RunOutput warm = run_grid(grid, threads, tr);
    if (check.has_reference()) {
      check.compare(warm, what);
    } else {
      check.set_reference(std::move(warm));
    }
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last = 0;
  do {
    if (threads == 1) rotation.next();
    const std::int64_t t = now_ns();
    const RunOutput out = run_grid(grid, threads, tr);
    last = now_ns() - t;
    times.push_back(static_cast<double>(last) * 1e-9);
    check.compare(out, what);
  } while (now_ns() + last <= deadline);
  rotation.restore();
}

/// Alternating 1-thread and N-thread blocks spread over `seconds`: each
/// thread count is sampled in several windows of the run, so a slow phase
/// of the host weighs on both alike, while each block keeps the pool's
/// CPUs busy from one repetition to the next. Returns the two series.
std::pair<std::vector<double>, std::vector<double>> timed_blocks(
    const Grid& grid, unsigned threads, double seconds, int blocks,
    Checker& check, Tracer& tr) {
  std::vector<double> t1, tn;
  CpuRotation rotation;
  const double each = seconds / (2.0 * blocks);
  for (int b = 0; b < blocks; ++b) {
    timed_block(grid, 1, each, rotation, check, tr, t1);
    timed_block(grid, threads, each, rotation, check, tr, tn);
  }
  return {t1, tn};
}

struct Context {
  Args args;
  Kind kind;
  unsigned threads;
  Inputs inputs;
  Pins pins;
};

/// End-to-end: median set-up, then alternating 1-thread / N-thread
/// repetitions of the whole workload until --seconds have passed.
int run_untraced(const Context& ctx) {
  Tracer off(false);
  // Pool workers inherit the CPU set of the thread that starts them, so the
  // pool must exist before any CPU rotation pins this thread.
  exec::ThreadPool::shared();
  const int setups = ctx.args.tiny ? 2 : 9;
  std::vector<double> setup_s;
  SetupResult su;
  {
    CpuRotation rotation;
    for (int i = 0; i < setups; ++i) {
      rotation.next();
      su = setup(ctx.kind, ctx.inputs, ctx.threads, off);
      setup_s.push_back(su.seconds);
    }
  }
  const Grid& grid = su.grid;
  Checker check(grid.cells.size());

  std::vector<double> t1, tn;
  bool threw = false;
  try {
    std::tie(t1, tn) = timed_blocks(grid, ctx.threads, ctx.args.seconds,
                                    ctx.args.tiny ? 1 : 8, check, off);
  } catch (const std::exception& e) {
    threw = true;
    check.fail_all(std::string("campaign threw: ") + e.what());
  }
  const std::uint64_t trials = check.reference().result.total_trials;
  if (!threw) check.check_pins(ctx.pins);

  const double tps = ratio(static_cast<double>(trials), median(tn));
  const double tps1 = ratio(static_cast<double>(trials), median(t1));
  std::printf("workload %s seed %llu: %zu cells, %llu trials and %llu "
              "events per repetition, %zu + %zu timed repetitions\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed),
              grid.cells.size(), static_cast<unsigned long long>(trials),
              static_cast<unsigned long long>(
                  check.reference().result.total_events),
              t1.size(), tn.size());
  std::printf("  trials/s %.1f at %u threads, %.1f at 1 thread; set-up %.4f s "
              "(median of %d); failed_frac %.4f\n",
              tps, ctx.threads, tps1, median(setup_s), setups,
              ratio(static_cast<double>(check.failed()),
                    static_cast<double>(grid.cells.size())));
  for (const auto& [label, series] :
       {std::pair{"1-thread", t1}, std::pair{"N-thread", tn}}) {
    std::vector<double> q = series;
    if (q.empty()) continue;
    std::sort(q.begin(), q.end());
    std::printf("  %s repetitions: n=%zu, s p25 %.4f p50 %.4f p75 %.4f\n",
                label, q.size(), q[q.size() / 4], median(q),
                q[(3 * q.size()) / 4]);
  }
  std::printf("pins: {\"campaign\": \"%s\", \"report\": \"%s\"}\n",
              hex(check.reference_fingerprint()).c_str(),
              hex(check.reference_report()).c_str());
  std::printf("pin_cells: [");
  for (std::size_t c = 0; c < check.reference_cells().size(); ++c) {
    std::printf("%s\"%s\"", c == 0 ? "" : ", ",
                hex(check.reference_cells()[c]).c_str());
  }
  std::printf("]\n");

  const bool correct = check.failed() == 0;
  print_result(correct, grid.cells.size(), check.failed(),
               {{"trials_per_s", tps, "trials/s"},
                {"trials_per_s_1t", tps1, "trials/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mib", peak_rss_mib(), "MiB"}});
  return correct ? 0 : 1;
}

/// What the replay passes measured.
struct Replay {
  std::vector<double> trial_s;  ///< first pass, one entry per trial
  std::vector<double> in_trials_share;       ///< per pass
  std::vector<double> replay_over_campaign;  ///< per pass
};

/// `passes` replays of the campaign's tasks on one TrialArena, each paired
/// with a 1-thread campaign run just before it, so the ratios between the
/// two (serial share, tracing overhead) compare runs made under the same
/// host conditions. Every replay's per-cell sums must equal `result`.
Replay replay_passes(const Grid& grid, const CampaignResult& result,
                     const std::vector<Task>& tasks, int passes,
                     Checker& check, Tracer& tr) {
  Replay out;
  for (int pass = 0; pass < passes; ++pass) {
    const std::int64_t t = now_ns();
    {
      Scope s(tr, "campaign_1_thread");
      check.compare(run_grid(grid, 1, tr), "1-thread repetition");
    }
    const double campaign_s = static_cast<double>(now_ns() - t) * 1e-9;
    std::vector<Sums> sums(grid.cells.size());
    std::vector<RunningStats> lifetimes(grid.cells.size());
    double in_trials = 0.0;
    const int replay = tr.begin("replay");
    {
      TrialArena arena(grid.config.scheduler);
      for (const Task& task : tasks) {
        const CampaignCell& cell = grid.cells[task.cell];
        const int id = tr.begin("TrialArena::run",
                                static_cast<std::int32_t>(task.cell),
                                static_cast<std::int64_t>(task.trial));
        const TrialOutcome o = arena.run(
            cell.system, cell.plan,
            trial_seed(grid.config.base_seed, task.cell, task.trial));
        tr.end(id);
        const double d = tr.spans()[static_cast<std::size_t>(id)].seconds();
        in_trials += d;
        if (pass == 0) out.trial_s.push_back(d);
        sums[task.cell] += Sums::of(o);
        lifetimes[task.cell].add(static_cast<double>(o.lifetime_steps));
      }
    }
    tr.end(replay);
    const double replay_s =
        tr.spans()[static_cast<std::size_t>(replay)].seconds();
    out.in_trials_share.push_back(ratio(in_trials, campaign_s));
    out.replay_over_campaign.push_back(ratio(replay_s, campaign_s));
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      sums[c].lifetime_mean_bits = Sums::mean_bits(lifetimes[c]);
      if (!(sums[c] == Sums::of(result.cells[c]))) {
        check.fail(c, "replay sums of cell " + std::to_string(c) +
                          " differ from the campaign's CellStats");
      }
    }
  }
  return out;
}

/// Ratio of fresh (run_trial) to pooled (TrialArena::run) trial time over a
/// sample of ~16 tasks. Per sampled trial, an untimed TrialArena::run brings
/// the arena to the cell's shape, then the same trial runs timed on the
/// arena and timed on a fresh stack. All three outcomes must agree.
double pooled_over_fresh(const Grid& grid, const std::vector<Task>& tasks,
                         Checker& check, Tracer& tr) {
  Scope phase(tr, "pooled_vs_fresh");
  TrialArena arena(grid.config.scheduler);
  double fresh_s = 0.0, pooled_s = 0.0;
  const std::size_t step = std::max<std::size_t>(1, tasks.size() / 16);
  for (std::size_t i = 0; i < tasks.size(); i += step) {
    const Task& task = tasks[i];
    const CampaignCell& cell = grid.cells[task.cell];
    const auto c = static_cast<std::int32_t>(task.cell);
    const auto k = static_cast<std::int64_t>(task.trial);
    const std::uint64_t seed =
        trial_seed(grid.config.base_seed, task.cell, task.trial);
    const TrialOutcome warm = arena.run(cell.system, cell.plan, seed);
    std::int64_t t = now_ns();
    TrialOutcome pooled;
    {
      Scope s(tr, "TrialArena::run", c, k);
      pooled = arena.run(cell.system, cell.plan, seed);
    }
    pooled_s += static_cast<double>(now_ns() - t) * 1e-9;
    t = now_ns();
    TrialOutcome fresh;
    {
      Scope s(tr, "run_trial", c, k);
      fresh = run_trial(cell.system, cell.plan, seed, grid.config.scheduler);
    }
    fresh_s += static_cast<double>(now_ns() - t) * 1e-9;
    if (!(Sums::of(warm) == Sums::of(pooled)) ||
        !(Sums::of(warm) == Sums::of(fresh)) ||
        warm.lifetime_steps != fresh.lifetime_steps ||
        pooled.lifetime_steps != fresh.lifetime_steps) {
      check.fail(task.cell, "fresh run_trial differs from TrialArena::run");
    }
  }
  return ratio(fresh_s, pooled_s);
}

struct WorldTimes {
  std::vector<double> build, reset, start;
};

/// Per cell: one make_live_system, then four LiveSystem::reset + start.
WorldTimes world_times(const Grid& grid, Tracer& tr) {
  Scope phase(tr, "world");
  WorldTimes out;
  for (std::size_t c = 0; c < grid.cells.size(); ++c) {
    const CampaignCell& cell = grid.cells[c];
    const auto ci = static_cast<std::int32_t>(c);
    sim::Simulator sim(grid.config.scheduler);
    std::int64_t t = now_ns();
    std::unique_ptr<core::LiveSystem> live;
    {
      Scope s(tr, "make_live_system", ci, 0);
      live = core::make_live_system(sim, cell.system, cell.plan,
                                    trial_seed(grid.config.base_seed, c, 0));
    }
    out.build.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    for (std::uint64_t k = 1; k <= 4; ++k) {
      const auto ki = static_cast<std::int64_t>(k);
      sim.reset();
      t = now_ns();
      {
        Scope s(tr, "LiveSystem::reset", ci, ki);
        live->reset(cell.plan, trial_seed(grid.config.base_seed, c, k));
      }
      out.reset.push_back(static_cast<double>(now_ns() - t) * 1e-9);
      t = now_ns();
      {
        Scope s(tr, "LiveSystem::start", ci, ki);
        live->start();
      }
      out.start.push_back(static_cast<double>(now_ns() - t) * 1e-9);
    }
  }
  return out;
}

/// Medians of 5 sidecar round trips of `shards`, each checked to keep the
/// campaign fingerprint.
CodecTimes codec_times(const std::vector<ShardResult>& shards, Checker& check,
                       Tracer& tr) {
  Scope phase(tr, "codec");
  std::vector<double> enc, dec, mrg, rep;
  CodecTimes out;
  for (int i = 0; i < 5; ++i) {
    const RunOutput rt = codec_roundtrip(shards, tr);
    enc.push_back(rt.codec.encode);
    dec.push_back(rt.codec.decode);
    mrg.push_back(rt.codec.merge);
    rep.push_back(rt.codec.report);
    out.sidecar_bytes = rt.codec.sidecar_bytes;
    if (campaign_fingerprint(rt.result) != check.reference_fingerprint()) {
      check.fail_all("sidecar round trip changed the campaign result");
    }
  }
  out.encode = median(enc);
  out.decode = median(dec);
  out.merge = median(mrg);
  out.report = median(rep);
  return out;
}

/// Per-layer: spans around every call into the library, the replay, and
/// separate timings of world construction and the shard codec.
int run_traced(const Context& ctx) {
  exec::ThreadPool::shared();  // before any CPU rotation; see run_untraced
  Tracer tr(true);
  const int root = tr.begin("workload");
  const int reps = 3;

  std::vector<double> decode_s;
  SetupResult su;
  for (int i = 0; i < reps; ++i) {
    su = setup(ctx.kind, ctx.inputs, ctx.threads, tr);
    decode_s.push_back(su.decode_seconds);
  }
  const Grid& grid = su.grid;
  Checker check(grid.cells.size());

  // Whole-campaign timings, as in the untraced run (one span per call).
  std::vector<double> t1, tn;
  try {
    Scope s(tr, "campaign_blocks");
    std::tie(t1, tn) =
        timed_blocks(grid, ctx.threads, ctx.args.seconds / 2, 4, check, tr);
  } catch (const std::exception& e) {
    check.fail_all(std::string("campaign threw: ") + e.what());
    tr.end(root);
    print_result(false, grid.cells.size(), check.failed(), {});
    return 1;
  }
  check.check_pins(ctx.pins);
  const CampaignResult& result = check.reference().result;
  const std::vector<Task> tasks = campaign_tasks(grid, result);
  const Replay replay = replay_passes(grid, result, tasks, reps, check, tr);
  const double pooled_ratio = pooled_over_fresh(grid, tasks, check, tr);
  const WorldTimes world = world_times(grid, tr);
  const CodecTimes codec = codec_times(
      grid.shards > 0 ? check.reference().shards
                      : std::vector<ShardResult>{as_one_shard(result)},
      check, tr);
  tr.end(root);

  Sums total;
  std::uint64_t rounds = 0;
  for (const CellStats& c : result.cells) {
    total += Sums::of(c);
    rounds = std::max(rounds, c.rounds);
  }
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double n_trials = count(total.trials);
  double trial_total_s = 0.0;
  for (double s : replay.trial_s) trial_total_s += s;
  const double tps1 = ratio(n_trials, median(t1));
  const double tps = ratio(n_trials, median(tn));
  const auto [tail_pct, tail_s] = tail_percentile(replay.trial_s);

  std::printf("workload %s seed %llu (traced): %zu cells, %llu trials, "
              "%llu rounds; trial tail percentile p%g\n",
              ctx.args.workload.c_str(),
              static_cast<unsigned long long>(ctx.args.seed),
              grid.cells.size(), static_cast<unsigned long long>(total.trials),
              static_cast<unsigned long long>(rounds), tail_pct);
  std::printf("self time by span (s):\n");
  std::vector<std::pair<double, std::string>> self;
  for (const auto& [name, s] : tr.self_seconds()) self.push_back({s, name});
  std::sort(self.rbegin(), self.rend());
  for (const auto& [s, name] : self) {
    std::printf("  %-28s %12.6f\n", name.c_str(), s);
  }

  const std::vector<Metric> metrics = {
      {"codec.spec_decode_us", median(decode_s) * 1e6, "us"},
      {"codec.sidecar_encode_us", codec.encode * 1e6, "us"},
      {"codec.sidecar_decode_us", codec.decode * 1e6, "us"},
      {"codec.sidecar_bytes", count(codec.sidecar_bytes), "bytes"},
      {"codec.report_encode_us", codec.report * 1e6, "us"},
      {"shard.merge_us", codec.merge * 1e6, "us"},
      {"campaign.trials", n_trials, "count"},
      {"campaign.rounds", count(rounds), "count"},
      {"campaign.serial_frac", 1.0 - median(replay.in_trials_share),
       "fraction"},
      {"exec.parallel_eff", ratio(tps, ctx.threads * tps1), "fraction"},
      {"world.build_us", median(world.build) * 1e6, "us"},
      {"world.reset_us", median(world.reset) * 1e6, "us"},
      {"world.start_us", median(world.start) * 1e6, "us"},
      {"trial.pooled_over_fresh", pooled_ratio, "ratio"},
      {"trial.us_p50", median(replay.trial_s) * 1e6, "us"},
      {"trial.us_tail", tail_s * 1e6, "us"},
      {"trial.samples", count(replay.trial_s.size()), "count"},
      {"sim.events_per_trial", ratio(count(total.events), n_trials), "count"},
      {"trial.ns_per_event", ratio(trial_total_s * 1e9, count(total.events)),
       "ns/event"},
      {"attack.probes_per_trial",
       ratio(count(total.direct + total.indirect), n_trials), "count"},
      {"attack.crashes_per_trial", ratio(count(total.crashes), n_trials),
       "count"},
      {"traffic.requests_per_trial", ratio(count(total.offered), n_trials),
       "count"},
      {"traffic.completed_frac",
       ratio(count(total.completed), count(total.offered)), "fraction"},
      {"traffic.retries_per_request",
       ratio(count(total.retries), count(total.offered)), "ratio"},
      {"queue.shed_frac",
       ratio(count(total.shed), count(total.enqueued + total.shed)),
       "fraction"},
      {"queue.degraded_frac",
       ratio(count(total.degraded), count(total.served)), "fraction"},
      {"trial.ns_per_request",
       ratio(trial_total_s * 1e9, count(total.offered + total.pop_offered)),
       "ns/request"},
      {"population.requests_per_trial",
       ratio(count(total.pop_offered), n_trials), "count"},
      {"population.skipped_busy_frac",
       ratio(count(total.pop_skipped),
             count(total.pop_offered + total.pop_skipped)),
       "fraction"},
      {"trace.overhead_frac", median(replay.replay_over_campaign) - 1.0,
       "fraction"},
  };

  if (!ctx.args.trace_out.empty()) {
    std::ostringstream meta;
    meta << "{\"workload\":\"" << ctx.args.workload
         << "\",\"seed\":" << ctx.args.seed
         << ",\"host\":" << host_json(ctx.threads) << "}";
    tr.write_chrome(ctx.args.trace_out, ctx.args.workload, meta.str());
    std::printf("trace: %s (%zu spans)\n", ctx.args.trace_out.c_str(),
                tr.spans().size());
  }
  const bool correct = check.failed() == 0;
  print_result(correct, grid.cells.size(), check.failed(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Context ctx{args, kind_from_name(args.workload),
              std::max(1u, std::min(4u, std::thread::hardware_concurrency())),
              {}, {}};
  try {
    ctx.inputs = make_inputs(ctx.kind, args.seed, args.tiny);
    ctx.pins = load_pins(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: cannot make inputs: %s\n", e.what());
    return 2;
  }
  std::printf("host: %s\n", host_json(ctx.threads).c_str());
  std::fflush(stdout);
  try {
    return args.trace ? run_traced(ctx) : run_untraced(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: failed: %s\n", e.what());
    return 1;
  }
}
