// Minimal recursive-descent JSON parser: full value trees (objects,
// arrays, strings, numbers, bools, null), no external dependency.
//
// It exists for the documents the repo itself writes — JSONL trace lines
// and run exports — so tooling can read them back. It is a reader for
// our own well-formed output, not a hardened general-purpose parser:
// \uXXXX escapes are preserved verbatim rather than decoded. The writers'
// shared string escaper, appendJsonEscaped, lives here too.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace manet::util {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// std::map keeps object keys ordered, making round-trips deterministic.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  explicit JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  explicit JsonValue(double d) : kind_(Kind::kNumber), num_(d) {}
  explicit JsonValue(std::string s)
      : kind_(Kind::kString), str_(std::move(s)) {}
  explicit JsonValue(JsonArray a);
  explicit JsonValue(JsonObject o);

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::kNull; }
  bool isBool() const { return kind_ == Kind::kBool; }
  bool isNumber() const { return kind_ == Kind::kNumber; }
  bool isString() const { return kind_ == Kind::kString; }
  bool isArray() const { return kind_ == Kind::kArray; }
  bool isObject() const { return kind_ == Kind::kObject; }

  bool asBool(bool fallback = false) const {
    return isBool() ? bool_ : fallback;
  }
  double asNumber(double fallback = 0.0) const {
    return isNumber() ? num_ : fallback;
  }
  const std::string& asString() const;
  const JsonArray& asArray() const;
  const JsonObject& asObject() const;

  /// Object member lookup; nullptr when not an object or key absent.
  const JsonValue* find(std::string_view key) const;
  /// Chained convenience: find(key) as a number/string, or fallback.
  double numberAt(std::string_view key, double fallback = 0.0) const;
  std::string stringAt(std::string_view key,
                       const std::string& fallback = {}) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // Indirection keeps JsonValue movable while recursive.
  std::shared_ptr<JsonArray> arr_;
  std::shared_ptr<JsonObject> obj_;
};

/// Parse a complete JSON document. Returns nullopt on malformed input and
/// sets `err` (if non-null) to a message with the byte offset.
std::optional<JsonValue> parseJson(std::string_view text,
                                   std::string* err = nullptr);

/// Append `s` as the body of a JSON string (quotes not included): `"`, `\`,
/// `\n`, `\r` and `\t` get their short escapes, any other byte below 0x20
/// becomes \u00XX (which parseJson keeps verbatim).
void appendJsonEscaped(std::string& out, std::string_view s);

}  // namespace manet::util
