// Minimal JSON codec for the newline-delimited query protocol.
//
// The daemon speaks one JSON object per line in both directions
// (docs/SERVING.md). This is a deliberately small, dependency-free
// implementation: a recursive-descent parser into a JsonValue variant
// and an object writer with proper string escaping. It is not a general
// JSON library — no streaming, no comments, documents are expected to
// fit in one protocol line — but it accepts any RFC 8259 text (nested
// values, \uXXXX escapes including surrogate pairs) up to a fixed
// nesting depth.
//
// A value can also hold pre-encoded JSON text (PreEncoded): Write()
// copies it verbatim, so a large fragment encoded once — a cached
// answer's rows — is spliced into every response without being
// rebuilt value by value. Parse never produces one.

#ifndef CFQ_SERVER_JSON_H_
#define CFQ_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"

namespace cfq::server {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  // std::map keeps Write() output deterministic (sorted keys).
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}                          // null
  JsonValue(bool b) : value_(b) {}                          // NOLINT
  JsonValue(double n) : value_(n) {}                        // NOLINT
  JsonValue(int64_t n) : value_(static_cast<double>(n)) {}  // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}        // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}      // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}              // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}             // NOLINT

  // `text` must be one complete JSON value; it is written as is.
  static JsonValue PreEncoded(std::shared_ptr<const std::string> text);

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }
  bool is_pre_encoded() const {
    return std::holds_alternative<Encoded>(value_);
  }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const Array& as_array() const { return std::get<Array>(value_); }
  const Object& as_object() const { return std::get<Object>(value_); }
  const std::string& as_pre_encoded() const {
    return *std::get<Encoded>(value_);
  }

  // Object member lookup; null when this is not an object or the key is
  // absent.
  const JsonValue* Find(const std::string& key) const;

  // Typed member accessors with fallbacks (for request decoding):
  // missing keys or wrong-typed values return the fallback.
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  bool GetBool(const std::string& key, bool fallback) const;

  // Serializes this value on one line (keys sorted, minimal spacing).
  std::string Write() const;

  // Parses exactly one JSON document; trailing non-whitespace is an
  // error, as is nesting beyond `max_depth`.
  static Result<JsonValue> Parse(const std::string& text,
                                 size_t max_depth = 64);

 private:
  using Encoded = std::shared_ptr<const std::string>;
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object,
               Encoded>
      value_;
};

// Escapes `s` for inclusion in a JSON string literal (no quotes added),
// appending to `out`: runs of bytes that need no escape are copied in
// one append each.
void JsonEscape(std::string_view s, std::string* out);
std::string JsonEscape(const std::string& s);

// Canonical number rendering: integers bare, otherwise the shortest
// round-tripping decimal.
std::string JsonNumber(double v);

}  // namespace cfq::server

#endif  // CFQ_SERVER_JSON_H_
