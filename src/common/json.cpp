#include "common/json.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace fortress::json {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ParseError(what); }

[[noreturn]] void fail_at(std::size_t offset, const std::string& what) {
  fail("JSON parse error at byte " + std::to_string(offset) + ": " + what);
}

}  // namespace

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

const char* Value::kind_name(Kind k) {
  switch (k) {
    case Kind::Null: return "null";
    case Kind::Bool: return "bool";
    case Kind::Number: return "number";
    case Kind::String: return "string";
    case Kind::Array: return "array";
    case Kind::Object: return "object";
  }
  return "?";
}

namespace {
[[noreturn]] void type_fail(const std::string& ctx, const char* want,
                            Value::Kind got) {
  fail(ctx + ": expected " + want + ", got " + Value::kind_name(got));
}
}  // namespace

bool Value::as_bool(const std::string& ctx) const {
  if (kind_ != Kind::Bool) type_fail(ctx, "bool", kind_);
  return bool_;
}

double Value::as_double(const std::string& ctx) const {
  if (kind_ != Kind::Number) type_fail(ctx, "number", kind_);
  return num_;
}

std::uint64_t Value::as_u64(const std::string& ctx) const {
  if (kind_ != Kind::Number) type_fail(ctx, "number", kind_);
  std::uint64_t u = 0;
  const char* first = str_.data();
  const char* last = first + str_.size();
  auto [ptr, ec] = std::from_chars(first, last, u);
  if (ec != std::errc{} || ptr != last) {
    fail(ctx + ": expected unsigned integer, got '" + str_ + "'");
  }
  return u;
}

std::int64_t Value::as_i64(const std::string& ctx) const {
  if (kind_ != Kind::Number) type_fail(ctx, "number", kind_);
  std::int64_t v = 0;
  const char* first = str_.data();
  const char* last = first + str_.size();
  auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) {
    fail(ctx + ": expected integer, got '" + str_ + "'");
  }
  return v;
}

const std::string& Value::as_string(const std::string& ctx) const {
  if (kind_ != Kind::String) type_fail(ctx, "string", kind_);
  return str_;
}

const std::vector<Value>& Value::as_array(const std::string& ctx) const {
  if (kind_ != Kind::Array) type_fail(ctx, "array", kind_);
  return items_;
}

const Value* Value::get(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::required(const std::string& key,
                             const std::string& ctx) const {
  if (kind_ != Kind::Object) type_fail(ctx, "object", kind_);
  const Value* v = get(key);
  if (v == nullptr) fail(ctx + ": missing required key \"" + key + "\"");
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members(
    const std::string& ctx) const {
  if (kind_ != Kind::Object) type_fail(ctx, "object", kind_);
  return members_;
}

Value Value::make_null() { return Value{}; }
Value Value::make_bool(bool b) {
  Value v;
  v.kind_ = Kind::Bool;
  v.bool_ = b;
  return v;
}
Value Value::make_number(double num, std::string lexeme) {
  Value v;
  v.kind_ = Kind::Number;
  v.num_ = num;
  v.str_ = std::move(lexeme);
  return v;
}
Value Value::make_string(std::string s) {
  Value v;
  v.kind_ = Kind::String;
  v.str_ = std::move(s);
  return v;
}
Value Value::make_array(std::vector<Value> items) {
  Value v;
  v.kind_ = Kind::Array;
  v.items_ = std::move(items);
  return v;
}
Value Value::make_object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.kind_ = Kind::Object;
  v.members_ = std::move(members);
  return v;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value(/*depth=*/0);
    skip_ws();
    if (pos_ != text_.size()) {
      fail_at(pos_, "trailing bytes after document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void err(const std::string& what) const { fail_at(pos_, what); }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) err("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c) {
      err(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  void skip_ws() {
    while (!eof()) {
      char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        return;
      }
    }
  }

  Value parse_value(int depth) {
    if (depth > kMaxDepth) err("nesting deeper than 64 levels");
    if (eof()) err("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value::make_string(parse_string());
      case 't': parse_literal("true"); return Value::make_bool(true);
      case 'f': parse_literal("false"); return Value::make_bool(false);
      case 'n': parse_literal("null"); return Value::make_null();
      default: return parse_number();
    }
  }

  void parse_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      err("invalid literal (expected '" + std::string(lit) + "')");
    }
    pos_ += lit.size();
  }

  Value parse_object(int depth) {
    expect('{');
    std::vector<std::pair<std::string, Value>> members;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return Value::make_object(std::move(members));
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') err("expected object key string");
      std::string key = parse_string();
      for (const auto& [k, v] : members) {
        if (k == key) err("duplicate object key \"" + key + "\"");
      }
      skip_ws();
      expect(':');
      skip_ws();
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_ws();
      char c = next();
      if (c == '}') break;
      if (c != ',') { --pos_; err("expected ',' or '}'"); }
    }
    return Value::make_object(std::move(members));
  }

  Value parse_array(int depth) {
    expect('[');
    std::vector<Value> items;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return Value::make_array(std::move(items));
    }
    while (true) {
      skip_ws();
      items.push_back(parse_value(depth + 1));
      skip_ws();
      char c = next();
      if (c == ']') break;
      if (c != ',') { --pos_; err("expected ',' or ']'"); }
    }
    return Value::make_array(std::move(items));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        err("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode_escape(out); break;
        default: --pos_; err("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; err("invalid \\u escape digit"); }
    }
    return v;
  }

  void append_unicode_escape(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need a low one
      if (text_.substr(pos_, 2) != "\\u") err("unpaired surrogate");
      pos_ += 2;
      unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) err("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      err("unpaired surrogate");
    }
    // UTF-8 encode.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
      pos_ = start;
      err("invalid value");
    }
    if (peek() == '0') {
      ++pos_;
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) {
        err("leading zeros are not allowed");
      }
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        err("digit required after decimal point");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek()))) {
        err("digit required in exponent");
      }
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    std::string lexeme(text_.substr(start, pos_ - start));
    double d = 0.0;
    auto [ptr, ec] = std::from_chars(lexeme.data(),
                                     lexeme.data() + lexeme.size(), d);
    if (ec != std::errc{} || ptr != lexeme.data() + lexeme.size() ||
        !std::isfinite(d)) {
      pos_ = start;
      err("number out of range: '" + lexeme + "'");
    }
    return Value::make_number(d, std::move(lexeme));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void Writer::prefix() {
  if (pending_key_) {
    pending_key_ = false;
    return;  // value follows its "key": on the same line
  }
  if (has_item_.empty()) return;  // document root
  if (has_item_.back()) out_.push_back(',');
  has_item_.back() = true;
  if (!compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
}

void Writer::begin_object() {
  prefix();
  out_.push_back('{');
  has_item_.push_back(false);
}

void Writer::end_object() {
  const bool had_items = has_item_.back();
  has_item_.pop_back();
  if (had_items && !compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
  out_.push_back('}');
}

void Writer::begin_array() {
  prefix();
  out_.push_back('[');
  has_item_.push_back(false);
}

void Writer::end_array() {
  const bool had_items = has_item_.back();
  has_item_.pop_back();
  if (had_items && !compact_) {
    out_.push_back('\n');
    out_.append(2 * has_item_.size(), ' ');
  }
  out_.push_back(']');
}

void Writer::key(std::string_view k) {
  prefix();
  quoted(k);
  out_.push_back(':');
  if (!compact_) out_.push_back(' ');
  pending_key_ = true;
}

void Writer::value(bool b) {
  prefix();
  raw(b ? "true" : "false");
}

void Writer::value(double d) {
  prefix();
  raw(format_double(d));
}

void Writer::value(std::uint64_t u) {
  prefix();
  std::array<char, 24> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), u);
  raw(std::string_view(buf.data(), static_cast<std::size_t>(ptr - buf.data())));
}

void Writer::value(int i) {
  prefix();
  std::array<char, 16> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), i);
  raw(std::string_view(buf.data(), static_cast<std::size_t>(ptr - buf.data())));
}

void Writer::value(std::string_view s) {
  prefix();
  quoted(s);
}

void Writer::value_null() {
  prefix();
  raw("null");
}

void Writer::quoted(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\b': out_.append("\\b"); break;
      case '\f': out_.append("\\f"); break;
      case '\n': out_.append("\\n"); break;
      case '\r': out_.append("\\r"); break;
      case '\t': out_.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out_.append(buf);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

std::string Writer::str() const {
  if (!has_item_.empty()) fail("Writer::str() with unclosed containers");
  return out_;
}

std::string Writer::format_double(double d) {
  // JSON has no NaN/Infinity; plan validation rejects them before any
  // encode, so reaching this is a programming error.
  if (!std::isfinite(d)) fail("cannot encode non-finite number");
  std::array<char, 32> buf;
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  std::string s(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
  // to_chars shortest form may be integral ("3"); keep it — the parser
  // keeps the raw lexeme, so round-trips stay byte-identical.
  return s;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace fortress::json
