// service.hpp — the replicated-service abstraction.
//
// The paper's core argument for primary-backup (PB) over state-machine
// replication (SMR) is that PB "is suited to replicating any service without
// having to deal with sources of non-determinism" (§1). The Service
// interface therefore makes NO determinism promise: execute() may consult
// local randomness or local clocks. SMR additionally requires
// DeterministicService (execute() must be a pure function of state x
// request), which is what "DSM compliance" costs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace fortress::replication {

/// A service with opaque state, a request/response interface, and
/// snapshot/restore for state transfer. No determinism requirement.
class Service {
 public:
  virtual ~Service() = default;

  /// Process one request, possibly mutating state, returning the response.
  virtual Bytes execute(BytesView request) = 0;

  /// Serialize the full service state.
  Bytes snapshot() const {
    Bytes out;
    append_snapshot(out);
    return out;
  }

  /// Append the serialized state to `out` — the form the primary's state
  /// update uses to write it straight into a wire buffer.
  virtual void append_snapshot(Bytes& out) const = 0;

  /// Replace the state with a previously produced snapshot. Throws
  /// std::out_of_range on a truncated snapshot, leaving the state as it was.
  virtual void restore(BytesView snapshot) = 0;
};

/// The string map behind the map-based services; the transparent order lets
/// commands look keys up by borrowed token.
using StringMap = std::map<std::string, std::string, std::less<>>;

/// Marker base for services that satisfy the DSM requirement: execute() is a
/// deterministic function of (state, request). SMR replicas contract-check
/// this statically by accepting only DeterministicService.
class DeterministicService : public Service {};

/// A deterministic key-value store.
///
/// Commands (text): "PUT <key> <value>", "GET <key>", "DEL <key>", "SIZE".
/// Responses: "OK", "VALUE <v>", "NOTFOUND", "SIZE <n>", "ERR <why>".
class KvService final : public DeterministicService {
 public:
  Bytes execute(BytesView request) override;
  void append_snapshot(Bytes& out) const override;
  void restore(BytesView snapshot) override;

  std::size_t size() const { return data_.size(); }

 private:
  StringMap data_;
};

/// A deterministic counter: "INC", "ADD <n>", "GET" -> "COUNT <n>".
class CounterService final : public DeterministicService {
 public:
  Bytes execute(BytesView request) override;
  void append_snapshot(Bytes& out) const override;
  void restore(BytesView snapshot) override;

  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// A key-value store with a NON-deterministic command: "TOKEN <key>" stores
/// and returns a fresh random token. Legal to replicate with PB (backups
/// receive the primary's state), impossible with naive SMR re-execution —
/// replicas would mint different tokens. This is the §1 motivation made
/// executable; see tests/replication_pb_test and the smr_determinism test.
class SessionTokenService final : public Service {
 public:
  explicit SessionTokenService(std::uint64_t seed) : rng_(seed) {}

  Bytes execute(BytesView request) override;
  void append_snapshot(Bytes& out) const override;
  void restore(BytesView snapshot) override;

 private:
  Rng rng_;
  StringMap tokens_;
};

}  // namespace fortress::replication
