#ifndef IMOLTP_FAULT_FINGERPRINT_H_
#define IMOLTP_FAULT_FINGERPRINT_H_

// FNV-1a fingerprint helpers shared by the chaos harness and the dist
// cluster. Fingerprints cover only address-independent outcomes
// (commit/abort counts, log content sans LSNs, invariant checksums):
// the cache simulator hashes real heap addresses, so cycle and miss
// counts jitter across processes under ASLR and must never be folded
// into a bit-identity check.

#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fault/invariants.h"
#include "txn/log_manager.h"

namespace imoltp::fault {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline uint64_t FnvByte(uint64_t h, uint8_t b) {
  return (h ^ b) * kFnvPrime;
}

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = FnvByte(h, static_cast<uint8_t>(v >> (8 * i)));
  }
  return h;
}

inline uint64_t FnvBytes(uint64_t h, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) h = FnvByte(h, p[i]);
  return h;
}

inline uint64_t FnvString(uint64_t h, const std::string& s) {
  h = FnvMix(h, s.size());
  return FnvBytes(h, reinterpret_cast<const uint8_t*>(s.data()),
                  s.size());
}

/// Folds one record's replayable content into `h`. LSNs and txn ids are
/// left out: both come from per-engine counters, so their values repeat
/// with the seed, but the order they carry is already implied by record
/// order, and folding them in would change every recorded fingerprint
/// (the chaos campaigns' and perfbench/reference.json's).
inline uint64_t FnvLogRecord(uint64_t h, const txn::LogRecord& r) {
  h = FnvByte(h, static_cast<uint8_t>(r.op));
  h = FnvMix(h, static_cast<uint16_t>(r.table));
  h = FnvMix(h, static_cast<uint16_t>(r.column));
  h = FnvMix(h, static_cast<uint16_t>(r.slice));
  h = FnvMix(h, r.row);
  h = FnvByte(h, r.torn ? 1 : 0);
  h = FnvMix(h, r.payload().size());
  h = FnvBytes(h, r.payload().data(), r.payload().size());
  h = FnvMix(h, r.key().size());
  h = FnvBytes(h, r.key().data(), r.key().size());
  return h;
}

/// Digest of a log's replayable content: its length, then each record.
inline uint64_t FnvLog(uint64_t h,
                       const std::vector<txn::LogRecord>& log) {
  h = FnvMix(h, log.size());
  for (const txn::LogRecord& r : log) h = FnvLogRecord(h, r);
  return h;
}

/// FnvLog(h, engine.StableLog()), read where the records lie: no copy
/// of the log is made.
inline uint64_t FnvStableLog(uint64_t h, const engine::Engine& engine) {
  h = FnvMix(h, engine.StableLogSize());
  engine.VisitStableLog(
      [&h](const txn::LogRecord& r) { h = FnvLogRecord(h, r); });
  return h;
}

inline uint64_t FnvInvariants(uint64_t h, const InvariantReport& rep) {
  h = FnvByte(h, rep.ok ? 1 : 0);
  h = FnvMix(h, rep.checksums.size());
  for (int64_t v : rep.checksums) {
    h = FnvMix(h, static_cast<uint64_t>(v));
  }
  return h;
}

}  // namespace imoltp::fault

#endif  // IMOLTP_FAULT_FINGERPRINT_H_
