#include "replication/service.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <locale>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace fortress::replication {
namespace {

Bytes req(const std::string& s) { return bytes_of(s); }
std::string run(Service& svc, const std::string& cmd) {
  return string_of(svc.execute(req(cmd)));
}

TEST(KvServiceTest, PutGetDelete) {
  KvService kv;
  EXPECT_EQ(run(kv, "PUT a 1"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "VALUE 1");
  EXPECT_EQ(run(kv, "PUT a 2"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "VALUE 2");
  EXPECT_EQ(run(kv, "DEL a"), "OK");
  EXPECT_EQ(run(kv, "GET a"), "NOTFOUND");
  EXPECT_EQ(run(kv, "DEL a"), "NOTFOUND");
}

TEST(KvServiceTest, SizeAndErrors) {
  KvService kv;
  EXPECT_EQ(run(kv, "SIZE"), "SIZE 0");
  run(kv, "PUT x 1");
  run(kv, "PUT y 2");
  EXPECT_EQ(run(kv, "SIZE"), "SIZE 2");
  EXPECT_EQ(run(kv, ""), "ERR empty");
  EXPECT_EQ(run(kv, "FROB"), "ERR bad-command");
  EXPECT_EQ(run(kv, "PUT onlykey"), "ERR bad-command");
}

TEST(KvServiceTest, SnapshotRestoreRoundTrip) {
  KvService a;
  run(a, "PUT k1 v1");
  run(a, "PUT k2 v2");
  KvService b;
  b.restore(a.snapshot());
  EXPECT_EQ(run(b, "GET k1"), "VALUE v1");
  EXPECT_EQ(run(b, "GET k2"), "VALUE v2");
  EXPECT_EQ(b.size(), 2u);
}

TEST(KvServiceTest, RestoreReplacesState) {
  KvService a;
  run(a, "PUT fresh 1");
  Bytes snap = a.snapshot();
  KvService b;
  run(b, "PUT stale 9");
  b.restore(snap);
  EXPECT_EQ(run(b, "GET stale"), "NOTFOUND");
  EXPECT_EQ(run(b, "GET fresh"), "VALUE 1");
}

TEST(KvServiceTest, DeterminismAcrossInstances) {
  // The DSM property SMR relies on: same command sequence, same state.
  KvService a, b;
  for (const char* cmd : {"PUT x 1", "PUT y 2", "DEL x", "PUT z 3"}) {
    EXPECT_EQ(a.execute(req(cmd)), b.execute(req(cmd)));
  }
  EXPECT_EQ(a.snapshot(), b.snapshot());
}

TEST(CounterServiceTest, IncAddGet) {
  CounterService c;
  EXPECT_EQ(run(c, "GET"), "COUNT 0");
  EXPECT_EQ(run(c, "INC"), "COUNT 1");
  EXPECT_EQ(run(c, "ADD 10"), "COUNT 11");
  EXPECT_EQ(run(c, "ADD -4"), "COUNT 7");
  EXPECT_EQ(c.value(), 7);
}

TEST(CounterServiceTest, SnapshotRoundTrip) {
  CounterService a;
  run(a, "ADD 42");
  CounterService b;
  b.restore(a.snapshot());
  EXPECT_EQ(b.value(), 42);
}

TEST(SessionTokenServiceTest, MintsAndChecksTokens) {
  SessionTokenService svc(7);
  std::string reply = run(svc, "TOKEN alice");
  ASSERT_EQ(reply.substr(0, 6), "TOKEN ");
  std::string token = reply.substr(6);
  EXPECT_EQ(token.size(), 32u);  // 16 bytes hex
  EXPECT_EQ(run(svc, "CHECK alice " + token), "VALID");
  EXPECT_EQ(run(svc, "CHECK alice deadbeef"), "INVALID");
  EXPECT_EQ(run(svc, "CHECK bob x"), "NOTFOUND");
}

TEST(SessionTokenServiceTest, IsObservablyNonDeterministic) {
  // Two replicas executing the same request produce DIFFERENT results —
  // the §1 problem for SMR, harmless for PB.
  SessionTokenService r1(1), r2(2);
  Bytes a = r1.execute(req("TOKEN alice"));
  Bytes b = r2.execute(req("TOKEN alice"));
  EXPECT_NE(a, b);
}

TEST(SessionTokenServiceTest, StateShippingResolvesNonDeterminism) {
  // The PB fix: backups restore the primary's snapshot instead of
  // re-executing; afterwards they agree on the minted token.
  SessionTokenService primary(1), backup(2);
  std::string reply = run(primary, "TOKEN alice");
  std::string token = reply.substr(6);
  backup.restore(primary.snapshot());
  EXPECT_EQ(run(backup, "CHECK alice " + token), "VALID");
}

// --- snapshot restore ---------------------------------------------------

using Entries = std::vector<std::pair<std::string, std::string>>;

/// A map snapshot holding `entries` in the given order (the services
/// always write sorted, unique keys; tests also craft other orders).
Bytes snapshot_of(const Entries& entries) {
  Bytes out;
  append_u64_be(out, entries.size());
  for (const auto& [k, v] : entries) {
    append_u64_be(out, k.size());
    append(out, k);
    append_u64_be(out, v.size());
    append(out, v);
  }
  return out;
}

/// What restoring `entries` must produce, by the rebuild rule: insert in
/// snapshot order, the first of duplicate keys wins.
Bytes rebuilt_snapshot(const Entries& entries) {
  std::map<std::string, std::string> m;
  for (const auto& [k, v] : entries) m.emplace(k, v);
  return snapshot_of(Entries(m.begin(), m.end()));
}

/// Both map-based services, behind one factory each.
std::vector<std::function<std::unique_ptr<Service>()>> map_services() {
  return {[] { return std::make_unique<KvService>(); },
          [] { return std::make_unique<SessionTokenService>(5); }};
}

TEST(MapServiceRestoreTest, InPlaceRestoreEqualsFreshRestore) {
  const Entries before = {{"b", "2"}, {"d", "a-long-value-4"}, {"f", "6"}};
  const std::vector<Entries> targets = {
      {{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "a-long-value-4"},
       {"e", "5"}, {"f", "6"}, {"g", "7"}},              // extra keys
      {{"b", "two"}, {"d", "4"}, {"f", "six-but-longer"}},  // changed values
      {{"d", "a-long-value-4"}},                            // fewer keys
      {{"a", "1"}, {"c", "3"}, {"e", "5"}},                 // disjoint keys
      {},                                                   // empty
  };
  for (const auto& make : map_services()) {
    for (const Entries& target : targets) {
      const Bytes snap = snapshot_of(target);
      auto in_place = make();
      in_place->restore(snapshot_of(before));
      in_place->restore(snap);
      auto fresh = make();
      fresh->restore(snap);
      EXPECT_EQ(in_place->snapshot(), fresh->snapshot());
      EXPECT_EQ(in_place->snapshot(), snap);
    }
  }
}

TEST(MapServiceRestoreTest, InPlaceRestoreServesTheRestoredState) {
  KvService kv;
  run(kv, "PUT a old");
  run(kv, "PUT z gone");
  kv.restore(snapshot_of({{"a", "new"}, {"m", "mid"}}));
  EXPECT_EQ(run(kv, "GET a"), "VALUE new");
  EXPECT_EQ(run(kv, "GET m"), "VALUE mid");
  EXPECT_EQ(run(kv, "GET z"), "NOTFOUND");
  EXPECT_EQ(kv.size(), 2u);
}

TEST(MapServiceRestoreTest, UnsortedAndDuplicateKeysRebuildFirstWins) {
  const std::vector<Entries> odd = {
      {{"b", "2"}, {"a", "1"}},                           // out of order
      {{"a", "first"}, {"a", "second"}, {"c", "3"}},       // duplicate
      {{"c", "3"}, {"a", "1"}, {"c", "late"}, {"b", "2"}},  // both
  };
  for (const auto& make : map_services()) {
    for (const Entries& entries : odd) {
      auto svc = make();
      svc->restore(snapshot_of({{"a", "x"}, {"q", "y"}}));
      svc->restore(snapshot_of(entries));
      EXPECT_EQ(svc->snapshot(), rebuilt_snapshot(entries));
    }
  }
}

TEST(MapServiceRestoreTest, TruncatedSnapshotThrowsAndKeepsState) {
  const Bytes before = snapshot_of({{"k1", "v1"}, {"k3", "v3"}});
  // Every strict prefix of a valid snapshot is truncated; so is a snapshot
  // whose length field overruns the buffer.
  const Bytes target = snapshot_of({{"k1", "new"}, {"k2", "v2"}});
  std::vector<Bytes> bad;
  for (std::size_t n = 0; n < target.size(); ++n) {
    bad.emplace_back(target.begin(),
                     target.begin() + static_cast<std::ptrdiff_t>(n));
  }
  Bytes overrun;
  append_u64_be(overrun, 1);
  append_u64_be(overrun, 1000);
  append(overrun, std::string_view("short"));
  bad.push_back(overrun);
  for (const auto& make : map_services()) {
    for (const Bytes& snap : bad) {
      auto svc = make();
      svc->restore(before);
      EXPECT_THROW(svc->restore(snap), std::out_of_range)
          << "snapshot of " << snap.size() << " bytes";
      EXPECT_EQ(svc->snapshot(), before);
    }
  }
}

// --- request tokenizing ----------------------------------------------------

/// The reference split: what `std::istringstream >> std::string` yields
/// under the classic "C" locale, re-joined with single spaces.
std::string canonical(const std::string& request) {
  std::istringstream in(request);
  in.imbue(std::locale::classic());
  std::string out, tok;
  while (in >> tok) out += (out.empty() ? "" : " ") + tok;
  return out;
}

TEST(KvServiceTest, MixedWhitespaceRequestsMatchTheStreamSplit) {
  struct Case {
    std::string request;
    std::string reply;
  };
  const std::vector<Case> cases = {
      {"PUT a 1", "OK"},
      {"\tPUT  b\n2 ", "OK"},
      {"PUT\vc\f3\r", "OK"},
      {"  GET\t\ta  ", "VALUE 1"},
      {"GET b", "VALUE 2"},
      {"\r\nGET c\n", "VALUE 3"},
      {"PUT d 4 trailing tokens", "OK"},
      {"GET d", "VALUE 4"},
      {"   SIZE   ", "SIZE 4"},
      {"\n\t\v\f\r ", "ERR empty"},
      {"", "ERR empty"},
      {std::string("PUT\0 e 5", 8), "ERR bad-command"},  // NUL is not space
      {"PUT\xa0" "f 6", "ERR bad-command"},  // nor is a high byte
      {"DEL\ta", "OK"},
      {"GET a", "NOTFOUND"},
      {"PUT onlykey", "ERR bad-command"},
  };
  KvService raw, reference;
  for (const Case& c : cases) {
    EXPECT_EQ(run(raw, c.request), c.reply) << "request '" << c.request << "'";
    EXPECT_EQ(run(reference, canonical(c.request)), c.reply)
        << "canonical '" << canonical(c.request) << "'";
  }
  EXPECT_EQ(raw.snapshot(), reference.snapshot());
}

}  // namespace
}  // namespace fortress::replication
