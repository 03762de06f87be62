#include "server/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace cfq::server {

namespace {

class Parser {
 public:
  Parser(const std::string& text, size_t max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Run() {
    auto value = ParseValue(0);
    if (!value.ok()) return value;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(size_t depth) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue(std::move(s).value());
    }
    if (ConsumeWord("null")) return JsonValue();
    if (ConsumeWord("true")) return JsonValue(true);
    if (ConsumeWord("false")) return JsonValue(false);
    return ParseNumber();
  }

  Result<JsonValue> ParseObject(size_t depth) {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) return JsonValue(std::move(object));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      object[std::move(key).value()] = std::move(value).value();
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue(std::move(object));
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(size_t depth) {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) return JsonValue(std::move(array));
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value;
      array.push_back(std::move(value).value());
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue(std::move(array));
      return Error("expected ',' or ']'");
    }
  }

  // Appends `code` (a Unicode scalar value) to `out` as UTF-8.
  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    return code;
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            auto hi = ParseHex4();
            if (!hi.ok()) return hi.status();
            uint32_t code = hi.value();
            if (code >= 0xD800 && code <= 0xDBFF) {  // Surrogate pair.
              if (!(Consume('\\') && Consume('u'))) {
                return Error("unpaired surrogate");
              }
              auto lo = ParseHex4();
              if (!lo.ok()) return lo.status();
              if (lo.value() < 0xDC00 || lo.value() > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (lo.value() - 0xDC00);
            }
            AppendUtf8(code, &out);
            break;
          }
          default:
            --pos_;
            return Error("invalid escape");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      out.push_back(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return Error("expected a value");
    pos_ += static_cast<size_t>(end - start);
    if (!std::isfinite(v)) return Error("number out of range");
    return JsonValue(v);
  }

  const std::string& text_;
  const size_t max_depth_;
  size_t pos_ = 0;
};

void WriteValue(const JsonValue& value, std::string* out) {
  if (value.is_null()) {
    *out += "null";
  } else if (value.is_bool()) {
    *out += value.as_bool() ? "true" : "false";
  } else if (value.is_number()) {
    *out += JsonNumber(value.as_number());
  } else if (value.is_string()) {
    *out += '"';
    JsonEscape(value.as_string(), out);
    *out += '"';
  } else if (value.is_pre_encoded()) {
    *out += value.as_pre_encoded();
  } else if (value.is_array()) {
    *out += '[';
    bool first = true;
    for (const JsonValue& v : value.as_array()) {
      if (!first) *out += ',';
      first = false;
      WriteValue(v, out);
    }
    *out += ']';
  } else {
    *out += '{';
    bool first = true;
    for (const auto& [key, v] : value.as_object()) {
      if (!first) *out += ',';
      first = false;
      *out += '"';
      JsonEscape(key, out);
      *out += "\":";
      WriteValue(v, out);
    }
    *out += '}';
  }
}

}  // namespace

JsonValue JsonValue::PreEncoded(std::shared_ptr<const std::string> text) {
  JsonValue value;
  value.value_ = std::move(text);
  return value;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& object = as_object();
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

int64_t JsonValue::GetInt(const std::string& key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number()
             ? static_cast<int64_t>(v->as_number())
             : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

std::string JsonValue::Write() const {
  std::string out;
  WriteValue(*this, &out);
  return out;
}

Result<JsonValue> JsonValue::Parse(const std::string& text, size_t max_depth) {
  return Parser(text, max_depth).Run();
}

void JsonEscape(std::string_view s, std::string* out) {
  size_t run = 0;  // Start of the pending run of bytes copied as is.
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xF]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s, run, s.size() - run);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  JsonEscape(s, &out);
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no Inf/NaN.
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace cfq::server
