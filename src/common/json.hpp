// json.hpp — a minimal, strict JSON reader/writer for plan fixtures.
//
// The scenario robustness plane (plan_codec, corpus files, the minimizer's
// repro emission) needs a serialized form whose bytes are a reproducible
// fixture. That rules out "whatever a third-party library emits": this
// parser/writer pair is small, dependency-free, and CANONICAL —
//
//  * the writer has exactly one output form (2-space indent, fixed member
//    order as given by the caller, shortest round-trip number formatting
//    via std::to_chars), so encode(decode(encode(x))) is byte-identical;
//  * the parser is strict: it rejects trailing garbage, duplicate keys,
//    unescaped control characters, leading zeros, NaN/Infinity literals and
//    every other liberty lenient parsers take, and every rejection carries
//    the byte offset — malformed corpus files fail loudly at load, not
//    deep inside the simulator.
//
// Numbers keep their raw lexeme alongside the parsed double so integer
// fields (u64 seeds, keyspaces) round-trip without passing through a
// double. This is a fixture codec, not a general-purpose JSON stack: no
// streaming, no SAX, documents are expected to be small (kilobytes).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fortress::json {

/// Thrown by parse() and by the typed Value accessors; the message carries
/// the byte offset (parse) or the member path (accessors).
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed JSON value. Object member order is preserved (insertion
/// order), which the strict codecs rely on to verify canonical layout.
class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return kind_; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_bool() const { return kind_ == Kind::Bool; }

  /// Typed accessors. `ctx` names the field in error messages, which read
  /// "<ctx>: <problem>" ("faults[2].at: expected number, got string").
  bool as_bool(const std::string& ctx) const;
  double as_double(const std::string& ctx) const;
  /// Re-parses the raw number lexeme as an unsigned integer; rejects
  /// fractions, exponents, negatives and doubles-only lexemes.
  std::uint64_t as_u64(const std::string& ctx) const;
  std::int64_t as_i64(const std::string& ctx) const;
  const std::string& as_string(const std::string& ctx) const;
  const std::vector<Value>& as_array(const std::string& ctx) const;

  /// Object access: get() returns nullptr when absent; required() throws.
  const Value* get(const std::string& key) const;
  const Value& required(const std::string& key, const std::string& ctx) const;
  const std::vector<std::pair<std::string, Value>>& members(
      const std::string& ctx) const;

  static const char* kind_name(Kind k);

  // Construction (used by the parser; codecs only read).
  static Value make_null();
  static Value make_bool(bool b);
  static Value make_number(double num, std::string lexeme);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<std::pair<std::string, Value>> members);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;  ///< string payload, or the raw lexeme for numbers
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Strict parse of one complete JSON document. Throws ParseError (with byte
/// offset) on any deviation from RFC 8259 plus these extra strictures:
/// duplicate object keys and any bytes after the document are rejected.
Value parse(std::string_view text);

/// Canonical writer: the caller pushes the document in order and there is
/// exactly one byte sequence for a given call sequence. Layout: 2-space
/// indent, `"key": value`, members/elements one per line, `{}`/`[]` for
/// empty containers. Compact mode (indent disabled) emits the same document
/// with no whitespace at all — the digest input form.
class Writer {
 public:
  explicit Writer(bool compact = false) : compact_(compact) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  /// Starts a member inside an object; follow with exactly one value call
  /// (or begin_object / begin_array).
  void key(std::string_view k);

  void value(bool b);
  void value(double d);       ///< shortest round-trip form (std::to_chars)
  void value(std::uint64_t u);
  void value(int i);
  void value(std::string_view s);
  void value_null();

  /// The finished document. Precondition: all containers closed.
  std::string str() const;

  /// Number formatting used by value(double) — exposed so digests and tests
  /// can rely on the exact lexeme ("0.1", "1e-09", "-3.5", ...).
  static std::string format_double(double d);

 private:
  void prefix();  ///< separator + newline + indent before any new item
  void raw(std::string_view s) { out_.append(s); }
  void quoted(std::string_view s);

  bool compact_ = false;
  std::string out_;
  // Per-open-container state: true once the container has >= 1 item.
  std::vector<bool> has_item_;
  bool pending_key_ = false;
};

/// FNV-1a 64-bit over a byte string — the digest primitive the plan codec
/// and corpus fixtures use (offset basis 14695981039346656037, prime
/// 1099511628211).
std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace fortress::json
