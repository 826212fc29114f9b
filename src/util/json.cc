#include "src/util/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace manet::util {

JsonValue::JsonValue(JsonArray a)
    : kind_(Kind::kArray), arr_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : kind_(Kind::kObject),
      obj_(std::make_shared<JsonObject>(std::move(o))) {}

const std::string& JsonValue::asString() const {
  static const std::string kEmpty;
  return isString() ? str_ : kEmpty;
}

const JsonArray& JsonValue::asArray() const {
  static const JsonArray kEmpty;
  return isArray() ? *arr_ : kEmpty;
}

const JsonObject& JsonValue::asObject() const {
  static const JsonObject kEmpty;
  return isObject() ? *obj_ : kEmpty;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!isObject()) return nullptr;
  const auto it = obj_->find(std::string(key));
  return it != obj_->end() ? &it->second : nullptr;
}

double JsonValue::numberAt(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->asNumber(fallback) : fallback;
}

std::string JsonValue::stringAt(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->isString() ? v->asString() : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* err) {
    std::optional<JsonValue> v = parseValue();
    if (v) {
      skipWs();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        v.reset();
      }
    }
    if (!v && err != nullptr) *err = error_;
    return v;
  }

 private:
  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
    return false;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return fail("bad literal");
  }

  std::optional<JsonValue> parseValue() {
    skipWs();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    switch (text_[pos_]) {
      case '{': return parseObject();
      case '[': return parseArray();
      case '"': {
        std::string s;
        if (!parseString(&s)) return std::nullopt;
        return JsonValue(std::move(s));
      }
      case 't':
        if (!literal("true")) return std::nullopt;
        return JsonValue(true);
      case 'f':
        if (!literal("false")) return std::nullopt;
        return JsonValue(false);
      case 'n':
        if (!literal("null")) return std::nullopt;
        return JsonValue();
      default: return parseNumber();
    }
  }

  std::optional<JsonValue> parseNumber() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            ((text_[pos_] == '-' || text_[pos_] == '+') &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      digits = true;
      ++pos_;
    }
    if (!digits) {
      fail("invalid number");
      return std::nullopt;
    }
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      fail("invalid number");
      return std::nullopt;
    }
    return JsonValue(d);
  }

  bool parseString(std::string* out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("bad escape");
        const char esc = text_[pos_ + 1];
        switch (esc) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u':
            // Preserved verbatim (see header): appendJsonEscaped emits \u00XX
            // only for control bytes other than \n, \r and \t.
            *out += "\\u";
            break;
          default: return fail("bad escape");
        }
        pos_ += 2;
        continue;
      }
      *out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  std::optional<JsonValue> parseArray() {
    if (!consume('[')) return std::nullopt;
    JsonArray arr;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      std::optional<JsonValue> v = parseValue();
      if (!v) return std::nullopt;
      arr.push_back(std::move(*v));
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume(']')) return std::nullopt;
      return JsonValue(std::move(arr));
    }
  }

  std::optional<JsonValue> parseObject() {
    if (!consume('{')) return std::nullopt;
    JsonObject obj;
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      skipWs();
      std::string key;
      if (!parseString(&key)) return std::nullopt;
      skipWs();
      if (!consume(':')) return std::nullopt;
      std::optional<JsonValue> v = parseValue();
      if (!v) return std::nullopt;
      obj.insert_or_assign(std::move(key), std::move(*v));
      skipWs();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume('}')) return std::nullopt;
      return JsonValue(std::move(obj));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> parseJson(std::string_view text, std::string* err) {
  return Parser(text).run(err);
}

void appendJsonEscaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace manet::util
