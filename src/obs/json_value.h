#ifndef ESR_OBS_JSON_VALUE_H_
#define ESR_OBS_JSON_VALUE_H_

// Minimal recursive-descent JSON parser, promoted from the test tree so
// runtime tools (the trace auditor, the bench regression checker) can
// read the JSON the exporters write. Strict enough to catch malformed
// output (unbalanced braces, missing commas, bad escapes, bare NaN)
// while staying dependency-free. Numbers are doubles; \uXXXX escapes are
// validated but decoded as '?' (consumers only read ASCII content).
// Nesting is capped at kMaxJsonDepth, so a hostile `[[[[...` input is a
// parse error rather than a stack overflow.

#include <map>
#include <string>
#include <vector>

namespace esr {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_null() const { return type == Type::kNull; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }
  bool is_array() const { return type == Type::kArray; }
  bool is_object() const { return type == Type::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Member's number, or `fallback` when absent / not a number.
  double NumberOr(const std::string& key, double fallback) const;
};

/// Deepest array/object nesting ParseJson accepts. The committed bench
/// baselines nest 5 deep, so this leaves wide headroom while keeping the
/// recursion far from the stack limit.
inline constexpr int kMaxJsonDepth = 256;

/// Parses `text`; on failure returns false and (optionally) the error.
bool ParseJson(const std::string& text, JsonValue* out,
               std::string* error = nullptr);

}  // namespace esr

#endif  // ESR_OBS_JSON_VALUE_H_
