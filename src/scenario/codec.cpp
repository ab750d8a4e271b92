#include "scenario/codec.hpp"

#include <charconv>

namespace fortress::scenario {

void FieldReader::fail(const std::string& what) const {
  std::string path = root_;
  for (const Step& s : path_) {
    if (s.key != nullptr) {
      path += '.';
      path += s.key;
    } else {
      path += '[' + std::to_string(s.index) + ']';
    }
  }
  throw json::ParseError(path + ": " + what);
}

const json::Value& FieldReader::member(const char* key) {
  Object& obj = *obj_;
  const Members& ms = *obj.members;
  std::size_t i = obj.cursor;
  if (i >= ms.size() || ms[i].first != key) {
    i = 0;
    while (i < ms.size() && ms[i].first != key) ++i;
    if (i == ms.size()) {
      fail(std::string("missing required key \"") + key + "\"");
    }
  }
  if (i < 64) obj.used |= std::uint64_t{1} << i;
  ++obj.matched;
  obj.cursor = i + 1;
  return ms[i].second;
}

void FieldReader::fail_unknown_key(const Object& obj) const {
  // Keys are unique (the parser rejects duplicates) and every struct has
  // fewer than 64 fields, so an unmatched member sits among the first 64.
  std::size_t i = 0;
  while ((obj.used >> i) & 1) ++i;
  fail("unknown key \"" + (*obj.members)[i].first + "\"");
}

std::uint64_t FieldReader::hex(const json::Value& v) const {
  const std::string& s = at(&json::Value::as_string, v);
  if (s.size() != 18 || s[0] != '0' || s[1] != 'x') {
    fail("expected \"0x\" + 16 hex digits, got \"" + s + "\"");
  }
  std::uint64_t u = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data() + 2, end, u, 16);
  if (ec != std::errc{} || ptr != end) {
    fail("invalid hex literal \"" + s + "\"");
  }
  return u;
}

}  // namespace fortress::scenario
