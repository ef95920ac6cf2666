#ifndef IMOLTP_COMMON_FORMAT_H_
#define IMOLTP_COMMON_FORMAT_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <string>

namespace imoltp {

/// Human-readable byte count: "1MB", "10GB", "512B".
inline std::string FormatBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= (1ULL << 30) && bytes % (1ULL << 30) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluGB",
                  static_cast<unsigned long long>(bytes >> 30));
  } else if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluMB",
                  static_cast<unsigned long long>(bytes >> 20));
  } else if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluKB",
                  static_cast<unsigned long long>(bytes >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

/// printf into a std::string (one line of a report: at most 255 bytes).
__attribute__((format(printf, 1, 2))) inline std::string Sprintf(
    const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Fixed-width numeric cell for plain-text tables.
inline std::string FormatCell(double v, int width = 9, int precision = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%*.*f", width, precision, v);
  return buf;
}

}  // namespace imoltp

#endif  // IMOLTP_COMMON_FORMAT_H_
