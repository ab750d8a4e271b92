#include "replication/service.hpp"

#include <array>
#include <optional>
#include <stdexcept>
#include <string_view>

namespace fortress::replication {

namespace {

/// The whitespace of the classic "C" locale: space, \t \n \v \f \r.
bool is_c_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// A request's whitespace-separated tokens, as `std::istringstream >>
/// std::string` splits them under the classic "C" locale, but borrowed from
/// the request bytes: no stream, no locale, no string per token. `count` is
/// exact; only the first kKept tokens (all any command reads) are kept.
struct Tokens {
  static constexpr std::size_t kKept = 3;
  std::array<std::string_view, kKept> kept;
  std::size_t count = 0;

  std::string_view operator[](std::size_t i) const { return kept[i]; }
};

Tokens tokenize(BytesView request) {
  const std::string_view text(reinterpret_cast<const char*>(request.data()),
                              request.size());
  Tokens t;
  std::size_t i = 0;
  while (true) {
    while (i < text.size() && is_c_space(text[i])) ++i;
    if (i == text.size()) return t;
    const std::size_t start = i;
    while (i < text.size() && !is_c_space(text[i])) ++i;
    if (t.count < Tokens::kKept) {
      t.kept[t.count] = text.substr(start, i - start);
    }
    ++t.count;
  }
}

Bytes reply(std::string_view s) { return Bytes(s.begin(), s.end()); }

Bytes reply(std::string_view head, std::string_view tail) {
  Bytes out;
  out.reserve(head.size() + tail.size());
  append(out, head);
  append(out, tail);
  return out;
}

/// `m[key] = value`, probing with the borrowed key and reusing the old
/// value's capacity.
void put(StringMap& m, std::string_view key, std::string_view value) {
  auto it = m.lower_bound(key);
  if (it == m.end() || it->first != key) {
    it = m.emplace_hint(it, key, std::string());
  }
  it->second.assign(value);
}

// Snapshot format shared by the map-based services:
// u64 count, then per entry: u64 klen, key bytes, u64 vlen, value bytes.
// Written in map order, so keys are strictly ascending.
void append_map(Bytes& out, const StringMap& m) {
  std::size_t size = 8;
  for (const auto& [k, v] : m) size += 8 + k.size() + 8 + v.size();
  out.reserve(out.size() + size);
  append_u64_be(out, m.size());
  for (const auto& [k, v] : m) {
    append_u64_be(out, k.size());
    append(out, k);
    append_u64_be(out, v.size());
    append(out, v);
  }
}

/// Calls visit(key, value) for each snapshot entry, borrowed from `data`.
/// Throws std::out_of_range at the first field that overruns `data`.
template <typename Visit>
void for_each_entry(BytesView data, Visit&& visit) {
  std::size_t off = 0;
  const std::uint64_t count = read_u64_be(data, off);
  off += 8;
  auto field = [&] {
    const std::uint64_t len = read_u64_be(data, off);
    off += 8;
    if (len > data.size() - off) throw std::out_of_range("bad snapshot");
    const std::string_view s(reinterpret_cast<const char*>(data.data()) + off,
                             static_cast<std::size_t>(len));
    off += s.size();
    return s;
  };
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string_view key = field();
    const std::string_view value = field();
    visit(key, value);
  }
}

/// Make `m` hold exactly the snapshot's entries. The whole snapshot is
/// validated first, so a truncated one throws with `m` untouched. A
/// snapshot with strictly ascending keys (what append_map writes) is merged
/// in place: surviving nodes and value strings are reused, keys missing
/// from the snapshot are erased and new keys inserted at their position.
/// Any other snapshot is rebuilt as a new map, where the first of duplicate
/// keys wins.
void restore_map(StringMap& m, BytesView data) {
  bool ascending = true;
  std::optional<std::string_view> prev;
  for_each_entry(data, [&](std::string_view key, std::string_view) {
    if (prev && !(*prev < key)) ascending = false;
    prev = key;
  });
  if (!ascending) {
    StringMap fresh;
    for_each_entry(data, [&](std::string_view key, std::string_view value) {
      fresh.emplace(key, value);
    });
    m = std::move(fresh);
    return;
  }
  auto it = m.begin();
  for_each_entry(data, [&](std::string_view key, std::string_view value) {
    while (it != m.end() && it->first < key) it = m.erase(it);
    if (it != m.end() && it->first == key) {
      it->second.assign(value);
      ++it;
    } else {
      m.emplace_hint(it, key, value);
    }
  });
  m.erase(it, m.end());
}

}  // namespace

Bytes KvService::execute(BytesView request) {
  const Tokens tokens = tokenize(request);
  if (tokens.count == 0) return reply("ERR empty");
  const std::string_view cmd = tokens[0];
  if (cmd == "PUT" && tokens.count >= 3) {
    put(data_, tokens[1], tokens[2]);
    return reply("OK");
  }
  if (cmd == "GET" && tokens.count >= 2) {
    auto it = data_.find(tokens[1]);
    if (it == data_.end()) return reply("NOTFOUND");
    return reply("VALUE ", it->second);
  }
  if (cmd == "DEL" && tokens.count >= 2) {
    auto it = data_.find(tokens[1]);
    if (it == data_.end()) return reply("NOTFOUND");
    data_.erase(it);
    return reply("OK");
  }
  if (cmd == "SIZE") {
    return reply("SIZE ", std::to_string(data_.size()));
  }
  return reply("ERR bad-command");
}

void KvService::append_snapshot(Bytes& out) const { append_map(out, data_); }

void KvService::restore(BytesView snapshot) { restore_map(data_, snapshot); }

Bytes CounterService::execute(BytesView request) {
  const Tokens tokens = tokenize(request);
  if (tokens.count == 0) return reply("ERR empty");
  const std::string_view cmd = tokens[0];
  if (cmd == "INC") {
    ++value_;
    return reply("COUNT ", std::to_string(value_));
  }
  if (cmd == "ADD" && tokens.count >= 2) {
    value_ += std::stoll(std::string(tokens[1]));
    return reply("COUNT ", std::to_string(value_));
  }
  if (cmd == "GET") {
    return reply("COUNT ", std::to_string(value_));
  }
  return reply("ERR bad-command");
}

void CounterService::append_snapshot(Bytes& out) const {
  append_u64_be(out, static_cast<std::uint64_t>(value_));
}

void CounterService::restore(BytesView snapshot) {
  value_ = static_cast<std::int64_t>(read_u64_be(snapshot, 0));
}

Bytes SessionTokenService::execute(BytesView request) {
  const Tokens tokens = tokenize(request);
  if (tokens.count == 0) return reply("ERR empty");
  const std::string_view cmd = tokens[0];
  if (cmd == "TOKEN" && tokens.count >= 2) {
    // Non-deterministic: mints a fresh random token. A backup re-executing
    // this request would mint a DIFFERENT token; only state shipping keeps
    // replicas consistent.
    Bytes raw;
    append_u64_be(raw, rng_.bits());
    append_u64_be(raw, rng_.bits());
    const std::string token = to_hex(raw);
    put(tokens_, tokens[1], token);
    return reply("TOKEN ", token);
  }
  if (cmd == "CHECK" && tokens.count >= 3) {
    auto it = tokens_.find(tokens[1]);
    if (it == tokens_.end()) return reply("NOTFOUND");
    return reply(it->second == tokens[2] ? "VALID" : "INVALID");
  }
  if (cmd == "GET" && tokens.count >= 2) {
    auto it = tokens_.find(tokens[1]);
    if (it == tokens_.end()) return reply("NOTFOUND");
    return reply("TOKEN ", it->second);
  }
  return reply("ERR bad-command");
}

void SessionTokenService::append_snapshot(Bytes& out) const {
  append_map(out, tokens_);
}

void SessionTokenService::restore(BytesView snapshot) {
  restore_map(tokens_, snapshot);
}

}  // namespace fortress::replication
