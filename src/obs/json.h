#ifndef IMOLTP_OBS_JSON_H_
#define IMOLTP_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace imoltp::obs {

/// Streaming JSON serializer. Call order is validated only by the
/// emitted text; callers are expected to pair Begin*/End* correctly.
/// Doubles print as integers when they are exactly integral (keeps
/// counters readable) and with enough digits to round-trip otherwise.
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  void Key(std::string_view key);

  void Value(std::string_view v);
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(double v);
  void Value(uint64_t v);
  void Value(int64_t v);
  void Value(int v) { Value(static_cast<int64_t>(v)); }
  void Value(bool v);
  void Null();

  void KeyValue(std::string_view key, std::string_view v) {
    Key(key);
    Value(v);
  }
  template <typename T>
  void KeyValue(std::string_view key, T v) {
    Key(key);
    Value(v);
  }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

 private:
  void MaybeComma();
  void AppendEscaped(std::string_view s);

  std::string out_;
  bool need_comma_ = false;
};

/// Parsed JSON document node. Numbers are doubles (every metric the
/// report schema emits fits); object member order is preserved.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member lookup; nullptr if absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Dotted-path lookup ("window.stalls_per_kinstr.L1I"). Path segments
  /// index objects by key; array elements are not addressable this way.
  const JsonValue* FindPath(std::string_view path) const;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
StatusOr<JsonValue> ParseJson(std::string_view text);

/// Reads a whole file into memory (the report, matrix and timeline
/// documents the CLI tools consume).
StatusOr<std::string> ReadTextFile(const std::string& path);

}  // namespace imoltp::obs

#endif  // IMOLTP_OBS_JSON_H_
