#ifndef IMOLTP_FAULT_FAULT_INJECTOR_H_
#define IMOLTP_FAULT_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"

namespace imoltp::fault {

/// Canonical fault-point names. Points are plain strings so layers can
/// introduce new ones without touching this header, but the ones the
/// shipped code fires are enumerated here (and in docs/robustness.md).
inline constexpr const char* kCrashPreBody = "crash.pre_body";
inline constexpr const char* kCrashMidCommit = "crash.mid_commit";
inline constexpr const char* kCrashPostCommit = "crash.post_commit";
inline constexpr const char* kLogTornRecord = "log.torn_record";
inline constexpr const char* kLogTruncateTail = "log.truncate_tail";
inline constexpr const char* kLockConflict = "lock.conflict";
inline constexpr const char* kCoreDeath = "core.death";
inline constexpr const char* kTraceReadError = "trace.read_error";
inline constexpr const char* kNodeDeath = "node.death";
/// The crash interrupted the checkpoint writer mid-page: one page of
/// the newest complete checkpoint lands torn (bad checksum).
inline constexpr const char* kCkptTornPage = "ckpt.torn_page";

/// All the fault points the shipped code fires, for CLI validation.
inline constexpr const char* kAllFaultPoints[] = {
    kCrashPreBody,   kCrashMidCommit,  kCrashPostCommit,
    kLogTornRecord,  kLogTruncateTail, kLockConflict,
    kCoreDeath,      kTraceReadError,  kNodeDeath,
    kCkptTornPage,
};

inline bool IsKnownFaultPoint(const std::string& name) {
  for (const char* p : kAllFaultPoints) {
    if (name == p) return true;
  }
  return false;
}

/// Trigger configuration for one armed fault point.
struct FaultPointConfig {
  /// Fires with this probability on each hit (0 disables the
  /// probabilistic trigger).
  double probability = 0.0;
  /// Fires deterministically on exactly the nth hit (1-based; 0
  /// disables the counter trigger). Both triggers may be armed at once.
  uint64_t nth_hit = 0;
};

/// Per-point counters, snapshotted for the obs JSON export.
struct FaultPointStats {
  std::string point;
  uint64_t hits = 0;
  uint64_t fires = 0;
};

/// Seeded, deterministic fault injector. Layers that can fail hold a
/// `FaultInjector*` (null ⇒ zero-overhead pass-through) and call
/// `Fires(point)` at their named fault points; crash-class points go
/// through `FireCrash`, which additionally latches a crash so the
/// experiment loop halts the run (a crashed process executes nothing
/// further).
///
/// Determinism contract: with the same seed, the same arming and the
/// same interleaving (either core::ParallelMode repeats from its seed),
/// every draw happens at the same point in the instruction stream, so
/// the fault schedule — and everything downstream of it — is
/// bit-identical.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed) : rng_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arms (or re-arms) a fault point. Hit/fire counters are preserved
  /// across re-arming so drivers can re-configure between phases.
  void Arm(const std::string& point, FaultPointConfig config) {
    points_[point].config = config;
  }

  /// Disarms every point (counters survive for reporting). Used to run
  /// fault-free audit transactions on a still-wired engine.
  void DisarmAll() {
    for (auto& [name, p] : points_) p.config = FaultPointConfig{};
  }

  /// Records a hit at `point` and returns true when the point fires.
  /// Unarmed points count hits but never fire (and never draw from the
  /// RNG, so arming one point does not perturb another's schedule).
  bool Fires(const std::string& point) {
    Point& p = points_[point];
    ++p.hits;
    bool fire = false;
    if (p.config.nth_hit != 0 && p.hits == p.config.nth_hit) fire = true;
    if (!fire && p.config.probability > 0.0) {
      fire = rng_.NextDouble() < p.config.probability;
    }
    if (fire) ++p.fires;
    return fire;
  }

  /// `Fires` for crash-class points: a fire latches `crash_pending` and
  /// records which point crashed first.
  bool FireCrash(const std::string& point) {
    if (!Fires(point)) return false;
    if (!crash_pending_) crash_point_ = point;
    crash_pending_ = true;
    return true;
  }

  bool crash_pending() const { return crash_pending_; }
  std::string crash_point() const { return crash_point_; }
  void ClearCrash() {
    crash_pending_ = false;
    crash_point_.clear();
  }

  /// Seeded draw for driver-side fault shaping (e.g. how many records
  /// to truncate from a stable-log tail). Deterministic with the seed.
  uint64_t Uniform(uint64_t bound) {
    return bound == 0 ? 0 : rng_.Next() % bound;
  }

  /// Counter snapshot, sorted by point name (map order) so the JSON
  /// export is deterministic.
  std::vector<FaultPointStats> Stats() const {
    std::vector<FaultPointStats> out;
    out.reserve(points_.size());
    for (const auto& [name, p] : points_) {
      out.push_back(FaultPointStats{name, p.hits, p.fires});
    }
    return out;
  }

 private:
  struct Point {
    FaultPointConfig config;
    uint64_t hits = 0;
    uint64_t fires = 0;
  };

  Rng rng_;
  std::map<std::string, Point> points_;
  bool crash_pending_ = false;
  std::string crash_point_;
};

}  // namespace imoltp::fault

#endif  // IMOLTP_FAULT_FAULT_INJECTOR_H_
