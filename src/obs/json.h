#ifndef T2M_OBS_JSON_H
#define T2M_OBS_JSON_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/base/status.h"

namespace t2m::obs {

/// Minimal JSON document tree for validating our own emitted artefacts
/// (trace.json, stats.json) — a strict reader for machine-written output,
/// not a general-purpose JSON library. Objects keep insertion order and
/// allow duplicate keys (find returns the first), matching what a
/// streaming-emitted document can contain.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member with this key, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

/// Strict parse of a complete document: the whole input must be consumed
/// (trailing garbage is an error), depth is bounded, and malformed input
/// reports a parse_error Status with position context — it never throws.
Status parse_json(std::string_view text, JsonValue& out);

}  // namespace t2m::obs

#endif  // T2M_OBS_JSON_H
