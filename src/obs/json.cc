#include "obs/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace imoltp::obs {

void JsonWriter::MaybeComma() {
  if (need_comma_) out_.push_back(',');
  need_comma_ = true;
}

void JsonWriter::AppendEscaped(std::string_view s) {
  out_.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_.push_back('{');
  need_comma_ = false;
}

void JsonWriter::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_.push_back('[');
  need_comma_ = false;
}

void JsonWriter::EndArray() {
  out_.push_back(']');
  need_comma_ = true;
}

void JsonWriter::Key(std::string_view key) {
  MaybeComma();
  AppendEscaped(key);
  out_.push_back(':');
  need_comma_ = false;
}

void JsonWriter::Value(std::string_view v) {
  MaybeComma();
  AppendEscaped(v);
}

void JsonWriter::Value(double v) {
  MaybeComma();
  if (!std::isfinite(v)) {  // JSON has no NaN/Inf
    out_ += "null";
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    // 17 significant digits round-trip any double; %g drops the
    // trailing zeros so short values stay short.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out_ += buf;
}

void JsonWriter::Value(uint64_t v) {
  MaybeComma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(v));
  out_ += buf;
}

void JsonWriter::Value(int64_t v) {
  MaybeComma();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out_ += buf;
}

void JsonWriter::Value(bool v) {
  MaybeComma();
  out_ += v ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue* JsonValue::FindPath(std::string_view path) const {
  const JsonValue* cur = this;
  while (!path.empty()) {
    const size_t dot = path.find('.');
    const std::string_view seg =
        dot == std::string_view::npos ? path : path.substr(0, dot);
    cur = cur->Find(seg);
    if (cur == nullptr) return nullptr;
    path = dot == std::string_view::npos ? std::string_view()
                                         : path.substr(dot + 1);
  }
  return cur;
}

namespace {

/// Recursive-descent parser; depth-limited so hostile input cannot
/// overflow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    JsonValue v;
    Status s = ParseValue(&v, 0);
    if (!s.ok()) return s;
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
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

  bool ConsumeWord(std::string_view w) {
    if (text_.substr(pos_, w.size()) == w) {
      pos_ += w.size();
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out, depth);
    if (c == '[') return ParseArray(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string);
    }
    if (ConsumeWord("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return Status::Ok();
    }
    if (ConsumeWord("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return Status::Ok();
    }
    if (ConsumeWord("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::Ok();
    }
    return ParseNumber(out);
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->type = JsonValue::Type::kObject;
    SkipWs();
    if (Consume('}')) return Status::Ok();
    while (true) {
      SkipWs();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      Status s = ParseString(&key);
      if (!s.ok()) return s;
      // A repeated key makes member lookup ambiguous (Find returns the
      // first): reject the document instead of comparing wrong entries.
      if (out->Find(key) != nullptr) {
        return Error("duplicate object key \"" + key + "\"");
      }
      SkipWs();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->type = JsonValue::Type::kArray;
    SkipWs();
    if (Consume(']')) return Status::Ok();
    while (true) {
      JsonValue value;
      Status s = ParseValue(&value, depth + 1);
      if (!s.ok()) return s;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= h - '0';
            else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
            else return Error("bad \\u escape");
          }
          // The schema only escapes control characters; encode the
          // code point as UTF-8 without surrogate handling.
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("bad escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const char* begin = text_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return Error("expected a value");
    pos_ += static_cast<size_t>(end - begin);
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return Status::Ok();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return Status::Internal("read error on " + path);
  return out;
}

}  // namespace imoltp::obs
