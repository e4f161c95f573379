// Minimal JSON value + parser + writer for the daemon's newline-delimited
// socket protocol (and anything else that needs structured text). Hand
// rolled on purpose: the repo takes no third-party deps beyond gtest /
// google-benchmark, and the protocol only needs objects, arrays, strings,
// bools and numbers that round-trip exactly.
//
// Numbers keep their integer identity: a value parsed from "18446744073709551615"
// comes back as that exact uint64, not a double that lost the low bits —
// the protocol carries 64-bit RNG seeds, so this is load-bearing, not a
// nicety. Objects preserve insertion order (stored as a flat pair vector),
// so encode(parse(x)) is byte-stable and tests can compare dumped strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace syn::util {

/// Parse or type-mismatch failure; .what() carries the offending context.
struct JsonError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Json;
using JsonArray = std::vector<Json>;
/// Flat ordered map: lookup is linear, which is fine for protocol-sized
/// objects (a dozen keys) and keeps dump() order deterministic.
using JsonObject = std::vector<std::pair<std::string, Json>>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::uint64_t u) : value_(u) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  /// Deepest array/object nesting parse() accepts. The parser recurses
  /// once per level, so an unbounded depth would let one line of '['
  /// overflow the stack of whoever parses it (a server reading peer
  /// input).
  static constexpr std::size_t kMaxDepth = 64;

  /// Parses exactly one JSON value (leading/trailing whitespace allowed;
  /// anything else after the value is an error). Throws JsonError, also
  /// for nesting deeper than kMaxDepth.
  static Json parse(std::string_view text);

  /// Compact single-line serialization (no spaces, keys in insertion
  /// order) — one dump() per protocol line.
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] bool is_null() const {
    return std::holds_alternative<std::nullptr_t>(value_);
  }
  [[nodiscard]] bool is_bool() const {
    return std::holds_alternative<bool>(value_);
  }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(value_) ||
           std::holds_alternative<std::int64_t>(value_) ||
           std::holds_alternative<std::uint64_t>(value_);
  }
  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(value_);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value_);
  }
  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value_);
  }

  // Typed accessors; JsonError on a type mismatch (and on integer
  // narrowing that would change the value).
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] double number() const;
  [[nodiscard]] std::uint64_t u64() const;
  [[nodiscard]] std::int64_t i64() const;
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const JsonArray& array() const;
  [[nodiscard]] const JsonObject& object() const;

  // Object helpers.
  /// Pointer to the value under `key`, or nullptr when absent (or when
  /// this value is not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Like find(), but absence throws JsonError naming the key.
  [[nodiscard]] const Json& at(std::string_view key) const;
  /// Appends (or replaces) `key` on an object; null promotes to an empty
  /// object first, any other type throws.
  Json& set(std::string key, Json value);

  /// Structural equality (number comparison is by exact stored value, so
  /// 1 (int) == 1 (uint) but 1 != 1.5).
  friend bool operator==(const Json& a, const Json& b);

 private:
  void dump_to(std::string& out) const;

  std::variant<std::nullptr_t, bool, double, std::int64_t, std::uint64_t,
               std::string, JsonArray, JsonObject>
      value_;
};

}  // namespace syn::util
