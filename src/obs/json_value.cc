#include "obs/json_value.h"

#include <cctype>
#include <cstdlib>

namespace esr {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    pos_ = 0;
    depth_ = 0;
    error_.clear();
    if (!ParseValue(out)) return false;
    SkipWhitespace();
    if (pos_ != text_.size()) return Fail("trailing content");
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  bool Fail(const std::string& what) {
    error_ = what + " at offset " + std::to_string(pos_);
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word, size_t len) {
    if (text_.compare(pos_, len, word) != 0) return Fail("bad literal");
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) return Fail("nesting too deep");
        ++depth_;
        const bool ok = c == '{' ? ParseObject(out) : ParseArray(out);
        --depth_;
        return ok;
      }
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JsonValue::Type::kBool;
        out->bool_value = true;
        return Literal("true", 4);
      case 'f':
        out->type = JsonValue::Type::kBool;
        out->bool_value = false;
        return Literal("false", 5);
      case 'n':
        out->type = JsonValue::Type::kNull;
        return Literal("null", 4);
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      ++pos_;
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    ++pos_;  // opening '"'
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return Fail("bad escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("bad \\u escape");
          for (int i = 0; i < 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return Fail("bad \\u escape");
            }
            ++pos_;
          }
          out->push_back('?');
          break;
        }
        default:
          return Fail("unknown escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    out->type = JsonValue::Type::kNumber;
    out->number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  JsonParser parser(text);
  const bool ok = parser.Parse(out);
  if (!ok && error != nullptr) *error = parser.error();
  return ok;
}

}  // namespace esr
