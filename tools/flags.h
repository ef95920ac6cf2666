#ifndef IMOLTP_TOOLS_FLAGS_H_
#define IMOLTP_TOOLS_FLAGS_H_

// The flag layer every command-line tool parses through. A tool
// declares each flag once, with its spelling, a one-line help, its
// target field and a kind; the same table then parses argv, rejects
// any value that is not whole and in range, and prints the tool's
// usage and --help. Flags are spelled --name=VALUE, switches --name.

#include <strings.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace imoltp::tools {

/// Parses a byte-size flag value like "10MB", "1GB", "512KB", or a bare
/// number (interpreted as MB). Returns 0 on any malformed input: empty,
/// non-numeric, zero, negative, unknown suffix, or trailing garbage.
inline uint64_t ParseSize(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || v <= 0) return 0;
  if (strcasecmp(end, "GB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 30));
  }
  if (strcasecmp(end, "KB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 10));
  }
  if (strcasecmp(end, "MB") == 0 || *end == '\0') {
    return static_cast<uint64_t>(v * (1ULL << 20));
  }
  return 0;
}

/// Parses a whole decimal number in [lo, hi]: no sign on unsigned
/// types, no whitespace, no trailing characters, no overflow.
template <typename T>
bool ParseNumber(const std::string& v, T lo, T hi, T* out) {
  T n{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (v.empty() || ec != std::errc() || ptr != end || n < lo || n > hi) {
    return false;
  }
  *out = n;
  return true;
}

/// Splits a comma list, dropping empty entries: "a,,b" -> {a, b}.
inline std::vector<std::string> SplitList(const std::string& s) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    if (comma > pos) out.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

/// One declared flag. `set` stores a value into the flag's target and
/// returns false on a malformed one, optionally with a detail in
/// `error`; the layer names the flag in the message.
struct Flag {
  std::string name;          // "--txns"
  std::string metavar;       // "N"; empty for a switch, which takes no value
  std::string help;          // one line
  std::string default_text;  // shown as "(default X)"; empty = not shown
  std::function<bool(const std::string& value, std::string* error)> set;
};

/// A whole number in [lo, hi]. An initial value outside the range
/// means "off" and is not shown as a default.
template <typename T>
Flag Number(const char* name, const char* help, T* out,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) {
  const bool in_range = *out >= lo && *out <= hi;
  return {name, "N", help, in_range ? std::to_string(*out) : "",
          [out, lo, hi](const std::string& v, std::string* error) {
            if (ParseNumber(v, lo, hi, out)) return true;
            *error = hi == std::numeric_limits<T>::max()
                         ? "want a whole number >= " + std::to_string(lo)
                         : "want a whole number in [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + "]";
            return false;
          }};
}

/// A byte size (ParseSize) of at most `max` bytes.
template <typename T>
Flag Size(const char* name, const char* help, T* out,
          uint64_t max = std::numeric_limits<T>::max()) {
  const uint64_t v = *out;
  const std::string shown = v % (1ULL << 20) == 0
                                ? std::to_string(v >> 20) + "MB"
                                : std::to_string(v >> 10) + "KB";
  return {name, "SIZE", help, shown,
          [out, max](const std::string& v, std::string* error) {
            const uint64_t bytes = ParseSize(v.c_str());
            if (bytes == 0 || bytes > max) {
              *error = "want a size like 512KB, 10MB or 1GB";
              return false;
            }
            *out = static_cast<T>(bytes);
            return true;
          }};
}

/// A non-empty string, such as a file path.
inline Flag Text(const char* name, const char* metavar, const char* help,
                 std::string* out) {
  return {name, metavar, help, *out,
          [out](const std::string& v, std::string* error) {
            if (v.empty()) {
              *error = "want a non-empty value";
              return false;
            }
            *out = v;
            return true;
          }};
}

/// "a b c" -> "a|b|c": a choice list as a flag's value placeholder.
inline std::string ChoiceMetavar(const char* choices) {
  std::string out = choices;
  std::replace(out.begin(), out.end(), ' ', '|');
  return out;
}

/// A name from a fixed set. `parse` is the spelling authority (e.g.
/// engine::ParseEngineKind) and `choices` lists its spellings,
/// space-separated. The target is the parsed value or, when it is a
/// string, the spelling itself.
template <typename T, typename Out>
Flag Choice(const char* name, const char* help, Out* out,
            bool (*parse)(const std::string&, T*), const char* choices,
            std::string default_text) {
  return {name, ChoiceMetavar(choices), help, std::move(default_text),
          [out, parse, choices](const std::string& v, std::string* error) {
            T parsed;
            if (!parse(v, &parsed)) {
              *error = std::string("choices: ") + choices;
              return false;
            }
            if constexpr (std::is_same_v<Out, std::string>) {
              *out = v;
            } else {
              *out = parsed;
            }
            return true;
          }};
}

/// A switch: --name sets *out to `value`.
inline Flag Switch(const char* name, const char* help, bool* out,
                   bool value = true) {
  return {name, "", help, "",
          [out, value](const std::string&, std::string*) {
            *out = value;
            return true;
          }};
}

/// A value with its own grammar (fault-point specs, comma lists).
inline Flag Custom(
    const char* name, const char* metavar, const char* help,
    std::function<bool(const std::string&, std::string*)> set,
    std::string default_text = "") {
  return {name, metavar, help, std::move(default_text), std::move(set)};
}

/// One tool's command line: the words after the program name in the
/// usage line, the flag table, and notes printed after the flags.
struct FlagSet {
  std::string synopsis;
  std::vector<Flag> flags;
  std::string notes;

  /// Parses argv[first..]. Stops with *help set on --help or -h.
  /// Returns false with `error` set on an unknown flag or a bad value.
  bool Parse(int argc, char* const* argv, int first, bool* help,
             std::string* error) const {
    *help = false;
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        *help = true;
        return true;
      }
      const size_t eq = arg.find('=');
      const std::string name = arg.substr(0, eq);
      const Flag* flag = nullptr;
      for (const Flag& f : flags) {
        if (f.name == name) flag = &f;
      }
      if (flag == nullptr) {
        *error = "unknown flag: " + arg;
        return false;
      }
      if (flag->metavar.empty() != (eq == std::string::npos)) {
        *error = flag->metavar.empty()
                     ? name + " takes no value"
                     : name + " needs a value: " + name + "=" +
                           flag->metavar;
        return false;
      }
      const std::string value =
          eq == std::string::npos ? "" : arg.substr(eq + 1);
      std::string detail;
      if (!flag->set(value, &detail)) {
        *error = "bad value for " + name + ": '" + value + "'";
        if (!detail.empty()) *error += " (" + detail + ")";
        return false;
      }
    }
    return true;
  }

  std::string UsageLine(const char* argv0) const {
    return std::string("usage: ") + argv0 + " " + synopsis + "[flags]\n";
  }

  std::string Usage(const char* argv0) const {
    std::string out = UsageLine(argv0) + "flags:\n";
    for (const Flag& f : flags) {
      std::string spelled = "  " + f.name;
      if (!f.metavar.empty()) spelled += "=" + f.metavar;
      spelled.resize(std::max<size_t>(spelled.size() + 1, 28), ' ');
      out += spelled + f.help;
      if (!f.default_text.empty()) {
        out += " (default " + f.default_text + ")";
      }
      out += '\n';
    }
    out += "  --help, -h                print this help\n";
    return out + notes;
  }

  /// Prints `error` and the usage line on stderr; returns exit code 2.
  int Fail(const char* argv0, const std::string& error) const {
    std::fprintf(stderr, "%s: %s\n%s(--help lists the flags)\n", argv0,
                 error.c_str(), UsageLine(argv0).c_str());
    return 2;
  }

  /// Parse for a tool's main(): returns -1 when the tool should go on,
  /// 0 after --help (the usage on stdout), 2 after a usage error.
  int ParseMain(int argc, char* const* argv, int first = 1) const {
    bool help = false;
    std::string error;
    if (!Parse(argc, argv, first, &help, &error)) {
      return Fail(argv[0], error);
    }
    if (!help) return -1;
    std::fputs(Usage(argv[0]).c_str(), stdout);
    return 0;
  }
};

}  // namespace imoltp::tools

#endif  // IMOLTP_TOOLS_FLAGS_H_
