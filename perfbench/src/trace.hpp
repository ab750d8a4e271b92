// trace.hpp — in-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into the library's
// public functions (one span per call), never inside the library. Each span
// carries its name, steady-clock start and end, the index of the enclosing
// span, and the (cell, trial) ids of the trial it covers (-1 when it covers
// none). Recording is single-threaded: every span is opened and closed on
// the benchmark's main thread, so children nest strictly inside parents.
//
// At exit the spans are written as Chrome trace-event JSON ("X" complete
// events), which chrome://tracing and Perfetto open directly, and each
// span name's self time (duration minus the time its direct children
// cover) is summed for the per-layer table.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::int32_t cell = -1;
  std::int64_t trial = -1;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span as a child of the innermost open one; returns its index
  /// (-1 when recording is off).
  int begin(const char* name, std::int32_t cell = -1, std::int64_t trial = -1) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.cell = cell;
    s.trial = trial;
    spans_.push_back(s);
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    spans_[static_cast<std::size_t>(id)].start_ns = now_ns();
    return id;
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    open_.pop_back();  // Scope closes spans in reverse order of opening
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of (duration - direct children's durations) per span name, in
  /// seconds.
  std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] += spans_[i].seconds() - child[i];
    }
    return out;
  }

  /// Chrome trace-event JSON (object form). `metadata_json` is a JSON
  /// object stored under "otherData".
  void write_chrome(const std::string& path, const std::string& workload,
                    const std::string& metadata_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,\"traceEvents\":[",
                 metadata_json.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                   "\"workload\":\"%s\",\"cell\":%d,\"trial\":%lld}}",
                   i == 0 ? "" : ",", s.name,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, workload.c_str(), s.cell,
                   static_cast<long long>(s.trial));
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) throw std::runtime_error("write failed: " + path);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is off.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int32_t cell = -1,
        std::int64_t trial = -1)
      : tracer_(tracer), id_(tracer.begin(name, cell, trial)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
