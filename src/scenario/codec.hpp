// codec.hpp — one field list per serialized struct, two visitors over it.
//
// Every JSON fixture the scenario plane commits or exchanges (scenario
// plans, corpus entries, campaign specs, shard sidecars and reports) is
// described ONCE, by a `template <class V> void describe(V& v, T& x)` that
// calls `v.field("key", x.member)` for each key in emission order (the
// plan's lists are in plan_codec.hpp). The visitors find describe() by
// argument-dependent lookup, so a list must be declared in namespace
// fortress::scenario itself (not in an unnamed namespace inside it) or in
// its struct's own namespace. Exactly two visitors walk these lists:
//  * FieldWriter emits the canonical json::Writer encoding: pretty for
//    files, compact for digests;
//  * FieldReader strict-decodes a parsed json::Value. It rejects unknown
//    and missing keys (the parser already rejects duplicates), range-checks
//    32-bit integers, and names the field's full path in every error
//    ("campaign spec.plans[1].keyspace: ..."). Key order is not checked on
//    load; fixture checks compare re-encoded bytes instead.
//
// The field kind follows from the member's C++ type: bool, double,
// std::uint64_t, unsigned (u32), int, std::string, an enum (through its
// one name table below), a nested struct (through its own describe()), a
// sequence of any of these, LatencyHistogram (kBins raw bin counts) and
// RunningStats (raw Welford state, rebuilt with from_raw). Three wrappers
// pick an encoding the type alone does not: Hex{u64} and Bits{double} are
// "0x" + 16 hex digits (a u64 pin, or a double's exact bit pattern), and
// Tag{"..."} is a constant string, such as a schema tag, that decode
// requires verbatim.
//
// Cross-field rules (name == plan.name, non-empty grids, ascending cell
// indices, ScenarioPlan::validate(), ...) stay hand-written after decode().
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "model/params.hpp"
#include "net/scenario.hpp"
#include "scenario/campaign.hpp"
#include "sim/simulator.hpp"

namespace fortress::scenario {

// --- Enum name tables: one per enum, used in both directions ---------------

template <class E>
struct EnumName {
  E value;
  const char* name;
};

template <class E, std::size_t N>
struct EnumTable {
  const char* noun;  ///< "unknown <noun> \"x\"" in decode errors
  EnumName<E> names[N];
};

using LatencyKind = net::LatencySpec::Kind;
constexpr EnumTable<LatencyKind, 3> enum_table(LatencyKind) {
  return {"latency kind",
          {{LatencyKind::Fixed, "fixed"},
           {LatencyKind::Uniform, "uniform"},
           {LatencyKind::Exponential, "exponential"}}};
}

constexpr EnumTable<net::OverloadPolicy, 4> enum_table(net::OverloadPolicy) {
  return {"overload policy",
          {{net::OverloadPolicy::DropTail, "drop_tail"},
           {net::OverloadPolicy::ShedNewest, "shed_newest"},
           {net::OverloadPolicy::Backpressure, "backpressure"},
           {net::OverloadPolicy::DegradeUnsigned, "degrade_unsigned"}}};
}

using FaultTarget = net::FaultEvent::Target;
constexpr EnumTable<FaultTarget, 2> enum_table(FaultTarget) {
  return {"fault target",
          {{FaultTarget::Server, "server"}, {FaultTarget::Proxy, "proxy"}}};
}

using FaultKind = net::FaultEvent::Kind;
constexpr EnumTable<FaultKind, 2> enum_table(FaultKind) {
  return {"fault kind",
          {{FaultKind::Recover, "recover"}, {FaultKind::Crash, "crash"}}};
}

using StopMetric = StoppingRule::Metric;
constexpr EnumTable<StopMetric, 3> enum_table(StopMetric) {
  return {"metric",
          {{StopMetric::MeanLifetime, "mean_lifetime"},
           {StopMetric::CompromiseProbability, "compromise_probability"},
           {StopMetric::LatencyQuantile, "latency_quantile"}}};
}

constexpr EnumTable<sim::SchedulerKind, 2> enum_table(sim::SchedulerKind) {
  return {"scheduler",
          {{sim::SchedulerKind::Wheel, "wheel"},
           {sim::SchedulerKind::Heap, "heap"}}};
}

constexpr EnumTable<model::SystemKind, 3> enum_table(model::SystemKind) {
  return {"system",
          {{model::SystemKind::S0, "S0"},
           {model::SystemKind::S1, "S1"},
           {model::SystemKind::S2, "S2"}}};
}

template <class E>
const char* enum_name(E e) {
  const auto table = enum_table(e);
  for (const EnumName<E>& n : table.names) {
    if (n.value == e) return n.name;
  }
  return "?";
}

/// Looks `name` up in E's table; false when it names no enumerator.
template <class E>
bool enum_parse(std::string_view name, E& out) {
  const auto table = enum_table(out);
  for (const EnumName<E>& n : table.names) {
    if (name == n.name) {
      out = n.value;
      return true;
    }
  }
  return false;
}

/// "unknown latency kind \"pareto\" (want fixed|uniform|exponential)".
template <class E>
std::string enum_error(std::string_view name) {
  const auto table = enum_table(E{});
  std::string msg = std::string("unknown ") + table.noun + " \"" +
                    std::string(name) + "\" (want ";
  for (const EnumName<E>& n : table.names) {
    if (&n != &table.names[0]) msg += '|';
    msg += n.name;
  }
  return msg + ")";
}

/// Throwing lookup for callers outside a decode (command-line flags):
/// json::ParseError "ctx: unknown ...".
template <class E>
E parse_enum(std::string_view name, const std::string& ctx) {
  E e{};
  if (!enum_parse(name, e)) {
    throw json::ParseError(ctx + ": " + enum_error<E>(name));
  }
  return e;
}

// --- Field-kind wrappers ---------------------------------------------------

struct Hex {
  std::uint64_t& value;
};
struct Bits {
  double& value;
};
struct Tag {
  const char* text;
};

/// "0x" + 16 lower-case hex digits.
inline std::string hex64(std::uint64_t v) {
  std::string out = "0x0000000000000000";
  for (std::size_t i = out.size(); i-- > 2; v >>= 4) {
    out[i] = "0123456789abcdef"[v & 0xF];
  }
  return out;
}

/// A sequence field: std::vector, or a view that zips parallel vectors
/// (the visitors test for std::string first).
template <class T>
concept Sequence = requires(T& t, std::size_t n) {
  t.size();
  t.resize(n);
  t[n];
};

/// Raw Welford state: how a RunningStats crosses a fixture.
struct RawStats {
  std::uint64_t count = 0;
  double mean = 0.0, m2 = 0.0, min = 0.0, max = 0.0;
};

template <class V>
void describe(V& v, RawStats& s) {
  v.field("count", s.count);
  v.field("mean_bits", Bits{s.mean});
  v.field("m2_bits", Bits{s.m2});
  v.field("min_bits", Bits{s.min});
  v.field("max_bits", Bits{s.max});
}

// --- The writer ------------------------------------------------------------

class FieldWriter {
 public:
  explicit FieldWriter(bool compact) : w_(compact) {}

  template <class T>
  void field(const char* key, T&& x) {
    w_.key(key);
    put(x);
  }

  template <class T>
  void put(T& x) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::uint64_t> || std::is_same_v<T, int>) {
      w_.value(x);
    } else if constexpr (std::is_same_v<T, unsigned>) {
      w_.value(std::uint64_t{x});
    } else if constexpr (std::is_same_v<T, std::string>) {
      w_.value(std::string_view(x));
    } else if constexpr (std::is_enum_v<T>) {
      w_.value(std::string_view(enum_name(x)));
    } else if constexpr (std::is_same_v<T, Hex>) {
      w_.value(std::string_view(hex64(x.value)));
    } else if constexpr (std::is_same_v<T, Bits>) {
      w_.value(std::string_view(hex64(std::bit_cast<std::uint64_t>(x.value))));
    } else if constexpr (std::is_same_v<T, Tag>) {
      w_.value(std::string_view(x.text));
    } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
      w_.begin_array();
      for (int b = 0; b < LatencyHistogram::kBins; ++b) w_.value(x.bin(b));
      w_.end_array();
    } else if constexpr (std::is_same_v<T, RunningStats>) {
      RawStats raw{x.count(), x.raw_mean(), x.raw_m2(), x.raw_min(),
                   x.raw_max()};
      put(raw);
    } else if constexpr (Sequence<T>) {
      w_.begin_array();
      for (std::size_t i = 0; i < x.size(); ++i) {
        auto&& item = x[i];
        put(item);
      }
      w_.end_array();
    } else {
      w_.begin_object();
      describe(*this, x);
      w_.end_object();
    }
  }

  std::string str() const { return w_.str(); }

 private:
  json::Writer w_;
};

/// Canonical encoding of `x` (describe() takes T& so that one list serves
/// both visitors; the writer only reads through it).
template <class T>
std::string encode(const T& x, bool compact) {
  FieldWriter w(compact);
  w.put(const_cast<T&>(x));
  return w.str();
}

// --- The strict reader -----------------------------------------------------

class FieldReader {
 public:
  /// `root` names the document in error paths ("plan", "campaign spec").
  explicit FieldReader(const char* root) : root_(root) { path_.reserve(16); }

  template <class T>
  void field(const char* key, T&& x) {
    const json::Value& v = member(key);
    path_.push_back({key, 0});
    get(v, x);
    path_.pop_back();
  }

  template <class T>
  void get(const json::Value& v, T& x) {
    using json::Value;
    if constexpr (std::is_same_v<T, bool>) {
      x = at(&Value::as_bool, v);
    } else if constexpr (std::is_same_v<T, double>) {
      x = at(&Value::as_double, v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      x = at(&Value::as_u64, v);
    } else if constexpr (std::is_same_v<T, unsigned>) {
      x = narrow<unsigned>(at(&Value::as_u64, v));
    } else if constexpr (std::is_same_v<T, int>) {
      x = narrow<int>(at(&Value::as_i64, v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = at(&Value::as_string, v);
    } else if constexpr (std::is_enum_v<T>) {
      const std::string& s = at(&Value::as_string, v);
      if (!enum_parse(s, x)) fail(enum_error<T>(s));
    } else if constexpr (std::is_same_v<T, Hex>) {
      x.value = hex(v);
    } else if constexpr (std::is_same_v<T, Bits>) {
      x.value = std::bit_cast<double>(hex(v));
    } else if constexpr (std::is_same_v<T, Tag>) {
      const std::string& s = at(&Value::as_string, v);
      if (s != x.text) {
        fail(std::string("expected \"") + x.text + "\", got \"" + s + "\"");
      }
    } else if constexpr (std::is_same_v<T, LatencyHistogram>) {
      const auto& bins = at(&Value::as_array, v);
      if (bins.size() != LatencyHistogram::kBins) {
        fail("expected " + std::to_string(LatencyHistogram::kBins) +
             " bins, got " + std::to_string(bins.size()));
      }
      for (int b = 0; b < LatencyHistogram::kBins; ++b) {
        std::uint64_t n = 0;
        item(bins, static_cast<std::size_t>(b), n);
        if (n > 0) x.add_bin(b, n);
      }
    } else if constexpr (std::is_same_v<T, RunningStats>) {
      RawStats raw;
      get(v, raw);
      x = RunningStats::from_raw(raw.count, raw.mean, raw.m2, raw.min,
                                 raw.max);
    } else if constexpr (Sequence<T>) {
      const auto& items = at(&Value::as_array, v);
      x.resize(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) {
        auto&& slot = x[i];
        item(items, i, slot);
      }
    } else {
      Object obj{&at(&Value::members, v)};
      Object* outer = std::exchange(obj_, &obj);
      describe(*this, x);
      obj_ = outer;
      if (obj.matched != obj.members->size()) fail_unknown_key(obj);
    }
  }

  /// Throws json::ParseError "<path to the current field>: what".
  [[noreturn]] void fail(const std::string& what) const;

 private:
  using Members = std::vector<std::pair<std::string, json::Value>>;
  struct Object {
    const Members* members;
    std::uint64_t used = 0;  ///< bit i: member i matched (i < 64)
    std::size_t matched = 0;
    std::size_t cursor = 0;  ///< canonical files list keys in order
  };
  struct Step {
    const char* key;    ///< nullptr for an array element
    std::size_t index;  ///< the element's position
  };

  template <class T>
  void item(const std::vector<json::Value>& items, std::size_t i, T& x) {
    path_.push_back({nullptr, i});
    get(items[i], x);
    path_.pop_back();
  }

  /// Runs a json::Value accessor with an empty context (so the happy path
  /// builds no path string) and re-throws its "ctx: message" error with
  /// the full path in front.
  template <class R>
  R at(R (json::Value::*accessor)(const std::string&) const,
       const json::Value& v) const {
    try {
      return (v.*accessor)(kNoCtx);
    } catch (const json::ParseError& e) {
      fail(e.what() + 2);  // skip the empty context's ": "
    }
  }

  template <class I, class Wide>
  I narrow(Wide w) const {
    if (!std::in_range<I>(w)) {
      fail("value " + std::to_string(w) + " does not fit in 32 bits");
    }
    return static_cast<I>(w);
  }

  std::uint64_t hex(const json::Value& v) const;
  const json::Value& member(const char* key);
  [[noreturn]] void fail_unknown_key(const Object& obj) const;
  inline static const std::string kNoCtx;

  const char* root_;
  Object* obj_ = nullptr;
  std::vector<Step> path_;
};

/// Strict decode of `root` into `x`; errors are rooted at `name`.
template <class T>
void decode(const json::Value& root, const char* name, T& x) {
  FieldReader(name).get(root, x);
}

}  // namespace fortress::scenario
