// timer_wheel.hpp — geometry and node layout of the hierarchical timer
// wheel (the Simulator's production scheduler).
//
// The wheel is 8 levels x 64 slots over 2^-10-unit ticks. An event at tick
// T (relative to the wheel cursor C) files under level
// floor(log64(T xor C)) — the highest 6-bit digit in which T and C differ —
// in the slot holding T's digit at that level. Level 0 therefore resolves
// single ticks; each coarser level covers 64x more. The full wheel spans
// 2^48 ticks (~2.7e11 time units at 1024 ticks/unit); events beyond that
// horizon (or saturated at kFarTick) wait in an exact-(time, seq) overflow
// heap and re-file when the cursor approaches.
//
// Determinism: bucket membership only ever narrows as the cursor advances
// (entries cascade from coarser to finer levels), and the tick at/behind
// the cursor is totally ordered by a small (time, seq) "due" heap — so
// execution order is bit-identical to a global binary heap, which the heap
// reference scheduler and the fortress_tests_heap ctest lane pin. When the
// next occupied bucket (the first one found scanning from level 0 up) holds
// a single entry, that entry is the next event overall: the cursor jumps
// to its tick and it runs directly, at any level, instead of cascading
// down level by level (unless its tick is past a run_until limit).
//
// This header holds the shared POD pieces — geometry constants, the
// 32-byte Node, the binary-heap entry/comparator, and the tick/level
// arithmetic — as sim::detail. The state machine itself (cascade, O(1)
// empty-gap jumps, due staging, the lone-entry fast path) lives in
// Simulator (simulator.{hpp,cpp}), which owns the flat Node vector the
// entries link through.
#pragma once

#include <bit>
#include <cstdint>

namespace fortress::sim::detail {

// Callable chunking: a slot's EventFn lives in a fixed 1024-slot chunk so
// its address never moves (handlers execute in place while they grow the
// slab). Node metadata needs no stable address and lives in one flat
// vector.
inline constexpr int kChunkBits = 10;
inline constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

inline constexpr std::uint32_t kNil = 0xffffffffu;

// Wheel geometry. Ticks are 2^-10 time units: fine enough that typical
// delivery latencies (~0.01-0.02 units) spread over many level-0 slots
// instead of piling into one due-heap tick, coarse enough that 8 levels
// cover 2^48 ticks (~2.7e11 units) before the overflow heap takes over.
inline constexpr int kLevelBits = 6;
inline constexpr int kLevels = 8;
inline constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
inline constexpr std::uint32_t kNumBuckets = kLevels * kSlotsPerLevel;
inline constexpr double kTicksPerUnit = 1024.0;
// Times at/past 2^62 ticks (or +inf) saturate to this tick; such entries
// live in the overflow heap, which orders by exact (time, seq) anyway.
inline constexpr std::uint64_t kFarTick = std::uint64_t{1} << 62;
inline constexpr std::uint64_t kNoLimit = ~std::uint64_t{0};

// Node location markers (values >= kNumBuckets are non-bucket states).
inline constexpr std::uint32_t kLocQueue = 0xfffffffeu;  // heap_/due_/ovf_
inline constexpr std::uint32_t kLocFree = 0xffffffffu;

/// Slot metadata: the (time, seq) ordering key plus queue linkage, one
/// element of a flat vector indexed by slot. The callable itself lives in
/// a PARALLEL chunk array (see Simulator::fn_of) so that wheel operations
/// — insert, cascade, cancel, bucket walks — stream 32-byte nodes (two per
/// cache line) and never pull the 128-byte callable storage through the
/// cache. Wheel-resident nodes doubly-link
/// into their bucket through `next`/`prev` (`next` doubles as the
/// free-list link while the slot is free). `gen` is bumped every time the
/// slot is released, so stale EventIds (and queue tombstones) are
/// recognized by mismatch. `at` is sim::Time (a double).
struct Node {
  double at = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t gen = 1;
  std::uint32_t next = kNil;
  std::uint32_t prev = kNil;
  std::uint32_t loc = kLocFree;
};
static_assert(sizeof(Node) == 32);

/// Entry of the reference heap and the wheel's due/overflow staging heaps.
struct HeapEntry {
  double at;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

/// Comparator for std::push_heap/pop_heap: "fires strictly later" yields a
/// min-heap on (time, insertion sequence).
struct FiresLater {
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

/// Quantize a virtual time to a wheel tick, saturating at kFarTick.
inline std::uint64_t tick_of(double at) {
  const double scaled = at * kTicksPerUnit;
  if (scaled >= static_cast<double>(kFarTick)) return kFarTick;
  return static_cast<std::uint64_t>(scaled);
}

/// Level of the highest set 6-bit digit of `bits` (= tick xor cursor).
/// Precondition: bits != 0.
inline int level_of(std::uint64_t bits) {
  return (63 - std::countl_zero(bits)) / kLevelBits;
}

}  // namespace fortress::sim::detail
