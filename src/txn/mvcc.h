#ifndef IMOLTP_TXN_MVCC_H_
#define IMOLTP_TXN_MVCC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mcsim/core.h"

namespace imoltp::txn {

/// Optimistic multiversion concurrency control in the style of Hekaton
/// (Larson et al.; the paper's DBMS M "adopts optimistic multiversioned
/// concurrency control", Section 3). No locks are taken:
///
///   - Begin() hands out a read timestamp.
///   - Reads record (row, observed version) in the read set; a reader
///     whose snapshot predates the newest committed version is served an
///     older image from the version chain.
///   - Writes stage full-row images; a pending write by another
///     transaction is a write-write conflict (immediate abort).
///   - Commit validates the read set (observed versions unchanged),
///     assigns a commit timestamp, pushes prior images onto the version
///     chains, and returns the staged writes for the engine to install.
///
/// Version-chain entries are real allocations and every touch is traced,
/// so the MVCC bookkeeping shows up in the simulated data-stall profile.
///
/// Read copies the visible image out: an interior pointer would dangle
/// once another transaction's commit trims the version chain.
class MvccManager {
 public:
  struct StagedWrite {
    uint64_t table_id;
    uint64_t row;
    std::vector<uint8_t> data;
  };

  MvccManager() = default;
  MvccManager(const MvccManager&) = delete;
  MvccManager& operator=(const MvccManager&) = delete;

  /// Starts a transaction; returns its id (== read timestamp snapshot).
  uint64_t Begin(mcsim::CoreSim* core);

  /// Records a read of (table, row) in the read set. If an older image
  /// from the version chain is visible at the reader's snapshot, copies
  /// it into `*image` and returns true; returns false when the table's
  /// current content is the visible version.
  bool Read(mcsim::CoreSim* core, uint64_t txn_id, uint64_t table_id,
            uint64_t row, std::vector<uint8_t>* image);

  /// Read-your-own-writes: if `txn_id` has already staged a write for
  /// (table, row), copies its newest staged image into `*image` and
  /// returns true. Callers must consult this BEFORE Read/ReadRow — a
  /// transaction's second update of a row must build on its first, not
  /// on the committed image (lost staged updates otherwise; TPC-C's
  /// stock rows take two single-column updates per order line).
  bool ReadOwnWrite(mcsim::CoreSim* core, uint64_t txn_id,
                    uint64_t table_id, uint64_t row,
                    std::vector<uint8_t>* image);

  /// Stages a full-row write. `prior_image` is the committed image being
  /// replaced (kept for older snapshots). kAborted on a pending write by
  /// another transaction.
  Status StageWrite(mcsim::CoreSim* core, uint64_t txn_id,
                    uint64_t table_id, uint64_t row,
                    const uint8_t* new_image, uint32_t length,
                    const uint8_t* prior_image);

  /// Validates and commits. On success fills `installs` with the staged
  /// writes (the engine writes them into its tables) and returns Ok.
  Status Commit(mcsim::CoreSim* core, uint64_t txn_id,
                std::vector<StagedWrite>* installs);

  void Abort(mcsim::CoreSim* core, uint64_t txn_id);

  uint64_t clock() const { return clock_; }

 private:
  struct Version {
    uint64_t commit_ts;
    std::vector<uint8_t> image;  // committed image valid BEFORE commit_ts
  };
  struct RowVersions {
    uint64_t last_commit_ts = 0;
    uint64_t pending_txn = 0;  // 0: none
    std::vector<Version> history;  // old images, newest last
  };
  struct ReadEntry {
    uint64_t row_key;
    uint64_t observed_ts;
  };
  struct TxnState {
    uint64_t read_ts;
    std::vector<ReadEntry> reads;
    std::vector<StagedWrite> writes;
    std::vector<std::vector<uint8_t>> prior_images;
  };

  static uint64_t RowKey(uint64_t table_id, uint64_t row) {
    return (table_id << 48) ^ row;
  }

  static constexpr size_t kMaxHistory = 4;

  uint64_t clock_ = 1;
  uint64_t next_txn_ = 0;
  std::unordered_map<uint64_t, RowVersions> versions_;
  std::unordered_map<uint64_t, TxnState> txns_;
};

}  // namespace imoltp::txn

#endif  // IMOLTP_TXN_MVCC_H_
