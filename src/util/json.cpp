#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <variant>

namespace syn::util {

namespace {

/// Recursive-descent parser over a string_view with a single cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  /// Counts one level of container nesting for the scope's lifetime;
  /// past Json::kMaxDepth the parse fails instead of recursing on.
  struct DepthGuard {
    Parser& parser;
    explicit DepthGuard(Parser& p) : parser(p) {
      if (++parser.depth_ > Json::kMaxDepth) {
        parser.fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
      }
    }
    ~DepthGuard() { --parser.depth_; }
  };

  Json parse_object() {
    const DepthGuard guard(*this);
    expect('{');
    JsonObject object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return Json(std::move(object));
    }
  }

  Json parse_array() {
    const DepthGuard guard(*this);
    expect('[');
    JsonArray array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return Json(std::move(array));
    }
  }

  void append_utf8(std::string& out, unsigned code_point) {
    if (code_point < 0x80) {
      out.push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else if (code_point < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape digit");
      }
    }
    return value;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          unsigned code_point = parse_hex4();
          // Combine a surrogate pair when a high surrogate is followed by
          // \uDC00..\uDFFF; a lone surrogate round-trips as U+FFFD.
          if (code_point >= 0xD800 && code_point <= 0xDBFF &&
              text_.substr(pos_, 2) == "\\u") {
            const std::size_t saved = pos_;
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code_point =
                  0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos_ = saved;
              code_point = 0xFFFD;
            }
          } else if (code_point >= 0xD800 && code_point <= 0xDFFF) {
            code_point = 0xFFFD;
          }
          append_utf8(out, code_point);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty() || token == "-") fail("invalid number");

    // Integer tokens keep full 64-bit precision; only overflowing or
    // fractional/exponent tokens fall back to double.
    if (integral) {
      if (token[0] == '-') {
        std::int64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      } else {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(token.data(), token.data() + token.size(), value);
        if (ec == std::errc() && ptr == token.data() + token.size()) {
          return Json(value);
        }
      }
    }
    double value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size()) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

void dump_string(const std::string& s, std::string& out) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_double(double d, std::string& out) {
  // max_digits10 guarantees parse(dump(x)) == x for every finite double.
  std::array<char, 32> buf{};
  const auto [ptr, ec] =
      std::to_chars(buf.data(), buf.data() + buf.size(), d);
  if (ec == std::errc()) {
    out.append(buf.data(), ptr);
  } else {
    out += "0";
  }
}

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

void Json::dump_to(std::string& out) const {
  std::visit(
      [&out](const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::nullptr_t>) {
          out += "null";
        } else if constexpr (std::is_same_v<T, bool>) {
          out += value ? "true" : "false";
        } else if constexpr (std::is_same_v<T, double>) {
          dump_double(value, out);
        } else if constexpr (std::is_same_v<T, std::int64_t> ||
                             std::is_same_v<T, std::uint64_t>) {
          out += std::to_string(value);
        } else if constexpr (std::is_same_v<T, std::string>) {
          dump_string(value, out);
        } else if constexpr (std::is_same_v<T, JsonArray>) {
          out.push_back('[');
          bool first = true;
          for (const Json& item : value) {
            if (!first) out.push_back(',');
            first = false;
            item.dump_to(out);
          }
          out.push_back(']');
        } else {
          out.push_back('{');
          bool first = true;
          for (const auto& [key, item] : value) {
            if (!first) out.push_back(',');
            first = false;
            dump_string(key, out);
            out.push_back(':');
            item.dump_to(out);
          }
          out.push_back('}');
        }
      },
      value_);
}

bool Json::boolean() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw JsonError("JSON value is not a bool");
}

double Json::number() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    return static_cast<double>(*i);
  }
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    return static_cast<double>(*u);
  }
  throw JsonError("JSON value is not a number");
}

std::uint64_t Json::u64() const {
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) return *u;
  if (const auto* i = std::get_if<std::int64_t>(&value_)) {
    if (*i < 0) throw JsonError("JSON number is negative, expected unsigned");
    return static_cast<std::uint64_t>(*i);
  }
  if (const double* d = std::get_if<double>(&value_)) {
    // Range-check BEFORE casting: float-to-integer conversion of an
    // out-of-range value is UB, and doubles here come straight off the
    // wire. (2^64 is exactly representable; anything >= it is out.)
    if (!(*d >= 0.0 && *d < 18446744073709551616.0)) {
      throw JsonError("JSON number is not an exact unsigned integer");
    }
    const auto u = static_cast<std::uint64_t>(*d);
    if (static_cast<double>(u) != *d) {
      throw JsonError("JSON number is not an exact unsigned integer");
    }
    return u;
  }
  throw JsonError("JSON value is not a number");
}

std::int64_t Json::i64() const {
  if (const auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (const auto* u = std::get_if<std::uint64_t>(&value_)) {
    if (*u > static_cast<std::uint64_t>(INT64_MAX)) {
      throw JsonError("JSON number overflows int64");
    }
    return static_cast<std::int64_t>(*u);
  }
  if (const double* d = std::get_if<double>(&value_)) {
    // Same UB guard as u64(): -2^63 is exactly representable, 2^63 is
    // the first value out of range above.
    if (!(*d >= -9223372036854775808.0 && *d < 9223372036854775808.0)) {
      throw JsonError("JSON number is not an exact integer");
    }
    const auto i = static_cast<std::int64_t>(*d);
    if (static_cast<double>(i) != *d) {
      throw JsonError("JSON number is not an exact integer");
    }
    return i;
  }
  throw JsonError("JSON value is not a number");
}

const std::string& Json::str() const {
  if (const auto* s = std::get_if<std::string>(&value_)) return *s;
  throw JsonError("JSON value is not a string");
}

const JsonArray& Json::array() const {
  if (const auto* a = std::get_if<JsonArray>(&value_)) return *a;
  throw JsonError("JSON value is not an array");
}

const JsonObject& Json::object() const {
  if (const auto* o = std::get_if<JsonObject>(&value_)) return *o;
  throw JsonError("JSON value is not an object");
}

const Json* Json::find(std::string_view key) const {
  const auto* object = std::get_if<JsonObject>(&value_);
  if (!object) return nullptr;
  for (const auto& [k, v] : *object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  if (const Json* value = find(key)) return *value;
  throw JsonError("missing JSON key \"" + std::string(key) + "\"");
}

Json& Json::set(std::string key, Json value) {
  if (is_null()) value_ = JsonObject{};
  auto* object = std::get_if<JsonObject>(&value_);
  if (!object) throw JsonError("Json::set on a non-object value");
  for (auto& [k, v] : *object) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object->emplace_back(std::move(key), std::move(value));
  return *this;
}

bool operator==(const Json& a, const Json& b) {
  if (a.value_.index() == b.value_.index()) return a.value_ == b.value_;
  // Numbers stored under different alternatives still compare by value.
  if (!a.is_number() || !b.is_number()) return false;
  const auto* ai = std::get_if<std::int64_t>(&a.value_);
  const auto* au = std::get_if<std::uint64_t>(&a.value_);
  const auto* bi = std::get_if<std::int64_t>(&b.value_);
  const auto* bu = std::get_if<std::uint64_t>(&b.value_);
  if (ai && bu) return std::cmp_equal(*ai, *bu);
  if (au && bi) return std::cmp_equal(*au, *bi);
  return a.number() == b.number();  // integer vs double
}

}  // namespace syn::util
