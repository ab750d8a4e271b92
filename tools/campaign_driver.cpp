// campaign_driver — the sharded multi-process campaign runner.
//
//   campaign_driver run   --spec F --shards N --out-dir D [--out merged.json]
//       fork N shared-nothing worker processes; worker i runs shard i of the
//       spec's grid and writes the sidecar D/shard-<i>.json, then the parent
//       merges the sidecars (exactly-once coverage + spec-digest agreement)
//       and writes the merged result report (stdout when --out is omitted).
//   campaign_driver shard --spec F --shard I --shards N [--out F]
//       run ONE shard in this process and write its sidecar — the building
//       block for running shards on separate machines; ship the sidecars
//       back and `merge` them.
//   campaign_driver merge --out F <shard.json>...
//       merge previously written sidecars into the result report.
//
// Bit-identity contract (pinned by tools/shard_check.py in the ctest lane):
// for a spec with work_stealing off, `run --shards N` produces a merged
// report BYTE-identical to `run --shards 1` for any N — trial seeds derive
// from global cell indices and adaptive stopping is per-cell, so
// partitioning changes nothing (see scenario/shard.hpp).
//
// Process model: plain fork(), no exec. The parent does NO thread-pool work
// before forking (it only reads the spec file), so each child starts with a
// clean single-threaded image and lazily constructs its own process-wide
// exec::ThreadPool — N processes, N independent pools and arena sets.
// Children exit via _exit() so they never unwind the parent's inherited
// state.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hpp"
#include "scenario/shard.hpp"

namespace {

using namespace fortress;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Write `text` to `<path>.tmp`, then rename it over `path`: a killed or
/// failing writer never leaves a torn file at `path`, and a write that fails
/// leaves any previous file there byte-identical.
void spit(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + tmp);
  out << text;
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write failed: " + path);
  }
}

struct Options {
  std::string spec_path;
  std::string out_path;
  std::string out_dir;
  std::uint32_t shard = 0;
  std::uint32_t n_shards = 1;
  std::vector<std::string> inputs;  ///< positional args (merge's sidecars)
};

Options parse_options(const std::vector<std::string>& args) {
  Options o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::runtime_error(a + " needs an argument");
      }
      return args[++i];
    };
    if (a == "--spec") o.spec_path = next();
    else if (a == "--out") o.out_path = next();
    else if (a == "--out-dir") o.out_dir = next();
    else if (a == "--shard")
      o.shard = tools::parse_unsigned<std::uint32_t>(a, next());
    else if (a == "--shards")
      o.n_shards = tools::parse_unsigned<std::uint32_t>(a, next());
    else if (!a.empty() && a[0] == '-') {
      throw std::runtime_error("unknown option " + a);
    } else {
      o.inputs.push_back(a);
    }
  }
  return o;
}

std::string sidecar_path(const std::string& dir, std::uint32_t shard) {
  return dir + "/shard-" + std::to_string(shard) + ".json";
}

/// Run one shard of the spec and write its sidecar. The exit path for
/// forked children (which must not unwind inherited state) is _exit, so
/// this reports by return code instead of exception.
int run_one_shard(const scenario::CampaignSpec& spec, std::uint32_t shard,
                  std::uint32_t n_shards, const std::string& out_path) {
  try {
    const scenario::ShardResult result = scenario::run_campaign_shard(
        spec.cells(), spec.config, shard, n_shards,
        scenario::campaign_spec_digest(spec));
    spit(out_path, scenario::shard_result_to_json(result));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign_driver: shard %u: %s\n", shard, e.what());
    return 1;
  }
}

void emit_result(const scenario::CampaignResult& merged,
                 const std::string& out_path) {
  const std::string report = scenario::campaign_result_to_json(merged);
  if (out_path.empty()) {
    std::cout << report;
  } else {
    spit(out_path, report);
  }
}

int cmd_run(const Options& o) {
  if (o.spec_path.empty() || o.out_dir.empty() || o.n_shards < 1) {
    throw std::runtime_error(
        "usage: campaign_driver run --spec F --shards N --out-dir D "
        "[--out merged.json]");
  }
  const scenario::CampaignSpec spec =
      scenario::campaign_spec_from_json(slurp(o.spec_path));

  // Fork the workers. The parent has done no pool work yet — each child
  // image is single-threaded and builds its own shared pool on first use.
  std::vector<pid_t> children;
  for (std::uint32_t s = 0; s < o.n_shards; ++s) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("campaign_driver: fork");
      for (pid_t c : children) waitpid(c, nullptr, 0);
      return 1;
    }
    if (pid == 0) {
      _exit(run_one_shard(spec, s, o.n_shards,
                          sidecar_path(o.out_dir, s)));
    }
    children.push_back(pid);
  }

  int failures = 0;
  for (std::uint32_t s = 0; s < o.n_shards; ++s) {
    int status = 0;
    if (waitpid(children[s], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "campaign_driver: shard %u failed\n", s);
      ++failures;
    }
  }
  if (failures > 0) return 1;

  std::vector<scenario::ShardResult> shards;
  for (std::uint32_t s = 0; s < o.n_shards; ++s) {
    shards.push_back(
        scenario::shard_result_from_json(slurp(sidecar_path(o.out_dir, s))));
  }
  emit_result(scenario::merge_shards(shards), o.out_path);
  return 0;
}

int cmd_shard(const Options& o) {
  if (o.spec_path.empty() || o.n_shards < 1 || o.shard >= o.n_shards) {
    throw std::runtime_error(
        "usage: campaign_driver shard --spec F --shard I --shards N "
        "[--out F]  (I < N)");
  }
  const scenario::CampaignSpec spec =
      scenario::campaign_spec_from_json(slurp(o.spec_path));
  const std::string out =
      o.out_path.empty() ? sidecar_path(".", o.shard) : o.out_path;
  return run_one_shard(spec, o.shard, o.n_shards, out);
}

int cmd_merge(const Options& o) {
  if (o.inputs.empty()) {
    throw std::runtime_error(
        "usage: campaign_driver merge [--out F] <shard.json>...");
  }
  std::vector<scenario::ShardResult> shards;
  for (const std::string& path : o.inputs) {
    shards.push_back(scenario::shard_result_from_json(slurp(path)));
  }
  emit_result(scenario::merge_shards(shards), o.out_path);
  return 0;
}

int usage() {
  std::cerr << "usage: campaign_driver run|shard|merge ... "
               "(see tools/campaign_driver.cpp header)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string cmd = args[0];
  args.erase(args.begin());
  try {
    const Options o = parse_options(args);
    if (cmd == "run") return cmd_run(o);
    if (cmd == "shard") return cmd_shard(o);
    if (cmd == "merge") return cmd_merge(o);
  } catch (const std::exception& e) {
    std::cerr << "campaign_driver " << cmd << ": " << e.what() << "\n";
    return 1;
  }
  return usage();
}
