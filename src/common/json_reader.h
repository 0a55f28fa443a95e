// Strict JSON reader, the counterpart of harness/json.h's writer.
//
// Every tool that reads a simulator artifact back — trace replay
// (obs/check.h), attribution ingestion (attr/explain.h) and the telemetry
// differ (tools/metrics_diff) — parses through this one reader. It accepts
// RFC 8259 JSON and nothing else: numbers follow the JSON grammar (no
// `nan`, `inf`, hex or leading `+`) and convert with strtod, so every
// number the writers print reads back to the same bits, and a number past
// the double range is an error rather than an infinity; `\u` escapes
// decode to UTF-8; nesting deeper than kMaxJsonDepth is rejected rather
// than exhausting the stack. Errors read "<message> at offset N".
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace protean {

/// Deepest array/object nesting the reader accepts. The simulator's own
/// artifacts nest fewer than ten levels.
inline constexpr int kMaxJsonDepth = 256;

/// One parsed JSON value. Objects keep their members in document order.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The first member named `key`; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// The whole text as one JSON document; nullopt on malformed input, with
  /// `*error` (when given) set to "<message> at offset N".
  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> v = value();
    skip_ws();
    if (v && pos_ != text_.size()) {
      fail("trailing characters after document");
      v.reset();
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(const char* message) {
    if (error_.empty()) {
      error_ = std::string(message) + " at offset " + std::to_string(pos_);
    }
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void skip_ws() {
    while (at(' ') || at('\t') || at('\n') || at('\r')) ++pos_;
  }

  bool consume(char expected) {
    skip_ws();
    if (!at(expected)) return false;
    ++pos_;
    return true;
  }

  std::optional<JsonValue> value() {
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) {
        fail("nesting too deep");
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      std::optional<std::string> s = parse_string();
      if (!s) return std::nullopt;
      JsonValue out;
      out.kind = JsonValue::Kind::kString;
      out.string = std::move(*s);
      return out;
    }
    if (c == 't') return literal("true", JsonValue::Kind::kBool, true);
    if (c == 'f') return literal("false", JsonValue::Kind::kBool, false);
    if (c == 'n') return literal("null", JsonValue::Kind::kNull, false);
    return number();
  }

  std::optional<JsonValue> object() {
    JsonValue out;
    out.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    if (consume('}')) return out;
    while (true) {
      skip_ws();
      std::optional<std::string> key = parse_string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':' in object");
        return std::nullopt;
      }
      std::optional<JsonValue> v = value();
      if (!v) return std::nullopt;
      out.object.emplace_back(std::move(*key), std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}' in object");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> array() {
    JsonValue out;
    out.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    if (consume(']')) return out;
    while (true) {
      std::optional<JsonValue> v = value();
      if (!v) return std::nullopt;
      out.array.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']' in array");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> literal(std::string_view word, JsonValue::Kind kind,
                                   bool boolean) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      fail("bad literal");
      return std::nullopt;
    }
    pos_ += word.size();
    JsonValue out;
    out.kind = kind;
    out.boolean = boolean;
    return out;
  }

  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — validated here, then
  // converted by strtod, which must stop exactly where the grammar did.
  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digit()) {
      while (digit()) ++pos_;
    } else {
      fail("expected value");
      return std::nullopt;
    }
    if (at('.')) {
      ++pos_;
      if (!digit()) {
        fail("bad number");
        return std::nullopt;
      }
      while (digit()) ++pos_;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digit()) {
        fail("bad number");
        return std::nullopt;
      }
      while (digit()) ++pos_;
    }
    const char* begin = text_.c_str() + start;
    char* end = nullptr;
    JsonValue out;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(begin, &end);
    if (end != text_.c_str() + pos_) {
      // strtod read on into hex digits or the like; the grammar did not.
      fail("bad number");
      return std::nullopt;
    }
    if (!std::isfinite(out.number)) {
      pos_ = start;
      fail("number out of range");
      return std::nullopt;
    }
    return out;
  }

  std::optional<unsigned> hex4() {
    if (text_.size() - pos_ < 4) return std::nullopt;
    unsigned code = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return std::nullopt;
      }
    }
    return code;
  }

  // The code point after "\u" (a surrogate pair counts as one); nullopt on
  // bad hex digits or an unpaired surrogate.
  std::optional<unsigned> unicode_escape() {
    const std::optional<unsigned> hi = hex4();
    if (!hi || (*hi >= 0xDC00 && *hi <= 0xDFFF)) return std::nullopt;
    if (*hi < 0xD800 || *hi > 0xDBFF) return hi;
    if (text_.compare(pos_, 2, "\\u") != 0) return std::nullopt;
    pos_ += 2;
    const std::optional<unsigned> lo = hex4();
    if (!lo || *lo < 0xDC00 || *lo > 0xDFFF) return std::nullopt;
    return 0x10000 + ((*hi - 0xD800) << 10) + (*lo - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned code) {
    const auto byte = [&out](unsigned b) { out += static_cast<char>(b); };
    if (code < 0x80) {
      byte(code);
    } else if (code < 0x800) {
      byte(0xC0 | (code >> 6));
      byte(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      byte(0xE0 | (code >> 12));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    } else {
      byte(0xF0 | (code >> 18));
      byte(0x80 | ((code >> 12) & 0x3F));
      byte(0x80 | ((code >> 6) & 0x3F));
      byte(0x80 | (code & 0x3F));
    }
  }

  std::optional<std::string> parse_string() {
    if (!at('"')) {
      fail("expected string");
      return std::nullopt;
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
        return std::nullopt;
      }
      ++pos_;
      if (c != '\\') {
        out += c;
        continue;
      }
      const std::size_t escape_at = pos_ - 1;  // errors point at the '\\'
      const char esc = pos_ < text_.size() ? text_[pos_++] : '\0';
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const std::optional<unsigned> code = unicode_escape();
          if (code) {
            append_utf8(out, *code);
            break;
          }
          pos_ = escape_at;
          fail("bad \\u escape");
          return std::nullopt;
        }
        default:
          pos_ = escape_at;
          fail("bad escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

/// Parses `text` as one JSON document; see JsonReader::parse.
inline std::optional<JsonValue> parse_json(const std::string& text,
                                           std::string* error = nullptr) {
  return JsonReader(text).parse(error);
}

}  // namespace protean
