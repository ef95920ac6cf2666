#ifndef IMOLTP_TXN_CHECKPOINT_H_
#define IMOLTP_TXN_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "index/key.h"

namespace imoltp::txn {

/// Fuzzy checkpointing (docs/robustness.md, "Checkpointing & fuzzy
/// recovery"). A checkpoint captures the dirty pages of every table
/// slice *while transactions run*, bracketed by kCheckpointBegin /
/// kCheckpointEnd WAL records. Recovery restores the newest complete,
/// checksum-clean checkpoint onto a freshly created database and
/// replays the retained log from that checkpoint's begin LSN; a torn
/// page fails its checksum and discards the whole checkpoint in favor
/// of the previous complete one.

/// One index's full contents at capture time. Indexes are not paged, so
/// a checkpoint carries each index that changed since population
/// (Index::dirty) as a (key, value) image; clean indexes are rebuilt
/// exactly by re-populating a fresh database.
struct CheckpointIndexImage {
  int16_t target = -1;  // -1 = primary index, else secondary ordinal
  std::vector<std::pair<index::Key, uint64_t>> entries;
};

/// One captured page: the full row-image contents of a page-aligned
/// RowId range (in-memory tables: 64-row logical pages; disk heap
/// files: slotted-page slots). `images` holds row_bytes per rid;
/// absent rows keep zeroed bytes and present[i] == 0. The checksum
/// covers every field, so a half-written (torn) page is detectable.
struct CheckpointPage {
  int16_t table = 0;
  int16_t slice = 0;
  uint64_t page_no = 0;
  uint32_t row_bytes = 0;
  std::vector<uint64_t> rids;
  std::vector<uint8_t> present;  // parallel to rids
  std::vector<uint8_t> images;   // rids.size() * row_bytes
  uint64_t checksum = 0;

  uint64_t ComputeChecksum() const;
  void Seal() { checksum = ComputeChecksum(); }
  bool Torn() const { return checksum != ComputeChecksum(); }
  uint64_t bytes() const {
    return images.size() + rids.size() * 9 + 24;
  }
};

/// One table slice's share of a checkpoint.
struct CheckpointSliceImage {
  int16_t table = 0;
  int16_t slice = 0;
  std::vector<CheckpointIndexImage> indexes;  // dirty indexes only
  std::vector<CheckpointPage> pages;
};

/// A whole checkpoint. `begin_lsn` anchors recovery: once this
/// checkpoint is durable, log records below the *oldest retained*
/// checkpoint's begin LSN can be truncated.
struct CheckpointImage {
  uint64_t id = 0;
  uint64_t begin_lsn = 0;
  uint64_t end_lsn = 0;
  bool complete = false;
  std::vector<CheckpointSliceImage> slices;

  uint64_t pages() const;
  uint64_t bytes() const;
  bool AnyTorn() const;
};

/// Checkpoint cadence and retention. Disabled by default: golden
/// profiling runs are unaffected unless a run opts in.
struct CheckpointPolicy {
  bool enabled = false;
  /// A new checkpoint begins every N transaction ticks of worker 0.
  uint64_t every_n_ticks = 64;
  /// Fuzzy capture rate for the non-partitioned engines: pages copied
  /// per transaction tick.
  int pages_per_step = 4;
  /// Complete checkpoints kept on the simulated device. 2 = the
  /// classic "previous complete checkpoint" torn-page fallback.
  int retain = 2;
};

struct CheckpointStats {
  uint64_t begun = 0;
  uint64_t completed = 0;
  uint64_t captured_pages = 0;
  uint64_t captured_bytes = 0;
  uint64_t truncations = 0;
  uint64_t truncated_records = 0;
};

/// Recovery observability (schema v7 `recovery` section).
struct RecoveryStats {
  uint64_t checkpoints_available = 0;
  uint64_t checkpoints_discarded = 0;  // torn → fell back
  uint64_t torn_pages = 0;
  bool used_checkpoint = false;
  uint64_t checkpoint_id = 0;
  uint64_t restored_pages = 0;
  uint64_t restored_bytes = 0;
  uint64_t index_entries = 0;  // entries restored from index images
  uint64_t replayed_records = 0;  // log records applied after restore
  uint64_t undone_records = 0;    // loser records rolled back
  uint64_t truncation_lsn = 0;
};

/// Owns the pending capture and the retained complete checkpoints (the
/// simulated checkpoint device). The engine drives capture; this class
/// handles lifecycle, retention, and the truncation anchor.
class CheckpointManager {
 public:
  explicit CheckpointManager(const CheckpointPolicy& policy)
      : policy_(policy) {}

  const CheckpointPolicy& policy() const { return policy_; }
  bool enabled() const { return policy_.enabled; }

  /// Starts a new pending checkpoint; one at a time.
  CheckpointImage& Begin(uint64_t begin_lsn);
  CheckpointImage* pending() {
    return pending_.has_value() ? &*pending_ : nullptr;
  }

  /// Seals the pending checkpoint, retains it (dropping beyond
  /// `retain`), and returns the truncation anchor — the oldest retained
  /// checkpoint's begin LSN. Log records below the anchor are no longer
  /// needed for recovery.
  uint64_t Complete(uint64_t end_lsn);

  /// Drops an in-flight capture (crash mid-checkpoint).
  void Abandon() { pending_.reset(); }

  const std::vector<CheckpointImage>& retained() const {
    return retained_;
  }

  /// Copy of the durable checkpoints as a recovery input (chaos tears
  /// pages in the copy, never in the live manager).
  std::vector<CheckpointImage> DeviceImage() const { return retained_; }

  CheckpointStats& stats() { return stats_; }
  const CheckpointStats& stats() const { return stats_; }

 private:
  CheckpointPolicy policy_;
  std::optional<CheckpointImage> pending_;
  std::vector<CheckpointImage> retained_;  // oldest first
  CheckpointStats stats_;
  uint64_t next_id_ = 1;
};

/// Picks the newest complete checkpoint whose pages all pass their
/// checksums, accumulating torn-page / fallback counts into `stats`.
/// Returns nullptr when none is usable.
const CheckpointImage* SelectRecoverable(
    const std::vector<CheckpointImage>& device, RecoveryStats* stats);

/// Torn-page injection: the crash interrupted the checkpoint writer
/// mid-page, so the first bytes on the device are new and the tail is
/// stale. Corrupts the tail of the page's image blob without resealing
/// the checksum — recovery must detect it.
void TearPage(CheckpointPage* page);

}  // namespace imoltp::txn

#endif  // IMOLTP_TXN_CHECKPOINT_H_
