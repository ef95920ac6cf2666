#ifndef IMOLTP_TXN_LOCK_MANAGER_H_
#define IMOLTP_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "fault/fault_injector.h"
#include "mcsim/core.h"

namespace imoltp::txn {

enum class LockMode : uint8_t { kShared, kExclusive };

/// The centralized lock table of the disk-based engine archetypes:
/// two-phase locking with a hashed lock-head table and per-transaction
/// lock lists. Every acquisition probes the shared table and touches the
/// lock head — the data- and instruction-side overhead that the paper's
/// in-memory systems design away (Section 2.1).
///
/// Conflict policy is no-wait: a conflicting request returns kAborted and
/// the caller aborts. In kSerial workers interleave at transaction
/// granularity, so waits could never resolve; in kInterleaved no-wait
/// keeps the scheduler deadlock-free while 2PL sees real contention.
class LockManager {
 public:
  explicit LockManager(uint64_t num_buckets = 1 << 14);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires `mode` on `object_id` (a hashed table/row identifier) for
  /// `txn_id`. Re-acquisition and shared→exclusive upgrade by the sole
  /// holder are supported.
  Status Acquire(mcsim::CoreSim* core, uint64_t txn_id, uint64_t object_id,
                 LockMode mode);

  /// Releases every lock `txn_id` holds (2PL release phase at
  /// commit/abort).
  void ReleaseAll(mcsim::CoreSim* core, uint64_t txn_id);

  /// Number of distinct locked objects (testing hook).
  uint64_t ActiveLocks() const { return active_locks_; }

  /// True if `txn_id` holds a lock on `object_id` (testing hook).
  bool Holds(uint64_t txn_id, uint64_t object_id) const;

  /// Attaches a fault injector; null detaches. When the
  /// `lock.conflict` point is armed, acquisitions spuriously conflict —
  /// a deterministic contention storm for exercising abort/retry paths.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

 private:
  struct LockHead {
    uint64_t object_id;
    LockMode mode;
    std::vector<uint64_t> holders;  // sharers, or the one exclusive owner
  };
  struct TxnLocks {
    uint64_t txn_id;
    std::vector<uint64_t> objects;
  };

  uint64_t BucketOf(uint64_t object_id) const;
  TxnLocks& LocksOf(uint64_t txn_id);
  void Release(mcsim::CoreSim* core, uint64_t txn_id, uint64_t object_id);

  std::vector<std::vector<LockHead>> buckets_;
  uint64_t mask_;
  fault::FaultInjector* fault_ = nullptr;
  uint64_t active_locks_ = 0;
  std::vector<TxnLocks> txn_locks_;  // small: one entry per live txn
};

}  // namespace imoltp::txn

#endif  // IMOLTP_TXN_LOCK_MANAGER_H_
