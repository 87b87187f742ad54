// A minimal JSON reader for the `bsr serve` wire protocol.
//
// Requests arrive as one JSON object per line; this parser covers exactly
// the JSON the service contract uses (objects, arrays, strings, integer
// numbers, booleans, null) and rejects everything else with a UsageError
// carrying the byte offset. It is the repository's one JSON reader: the lint
// schema tests read `bsr lint --json` documents with it too, where the
// reader is a tool and the sink is the code under test.
//
// Responses are *emitted* with plain ostream formatting + json_escape
// (analysis/diag.h), like every other JSON producer in this codebase — no
// writer class needed.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bsr::serve {

/// One parsed JSON value. Numbers are longs: the wire protocol has no
/// fractional fields, and a "1.5" in a request is a contract violation.
class Json {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Json() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::Bool; }

  /// Typed accessors; UsageError on kind mismatch.
  [[nodiscard]] bool boolean() const;
  [[nodiscard]] long num() const;
  [[nodiscard]] const std::string& str() const;
  [[nodiscard]] const std::vector<Json>& array() const;
  [[nodiscard]] const std::map<std::string, Json>& object() const;

  /// Object field lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* get(const std::string& key) const;

  /// Convenience typed lookups with defaults; UsageError when the field is
  /// present with the wrong type (a malformed request, not a missing one).
  [[nodiscard]] std::string str_or(const std::string& key,
                                   const std::string& def) const;
  [[nodiscard]] long num_or(const std::string& key, long def) const;
  [[nodiscard]] bool bool_or(const std::string& key, bool def) const;

  /// Parses one complete JSON document; UsageError on any syntax error or
  /// trailing content.
  [[nodiscard]] static Json parse(const std::string& text);

 private:
  friend class JsonParser;
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  long num_ = 0;
  std::string str_;
  std::shared_ptr<std::vector<Json>> arr_;
  std::shared_ptr<std::map<std::string, Json>> obj_;
};

}  // namespace bsr::serve
