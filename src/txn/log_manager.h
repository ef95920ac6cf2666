#ifndef IMOLTP_TXN_LOG_MANAGER_H_
#define IMOLTP_TXN_LOG_MANAGER_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault_injector.h"
#include "mcsim/core.h"

namespace imoltp::txn {

/// Write-ahead log record kinds.
enum class LogOp : uint8_t {
  kUpdate,   // column (or full-row when column < 0) after-image
  kInsert,   // full-row image + primary key
  kDelete,   // primary key
  kCommit,
  kAbort,
  kCommand,  // logical command record (VoltDB-style command logging)
  kCheckpointBegin,  // fuzzy checkpoint capture started (row = ckpt id)
  kCheckpointEnd,    // checkpoint complete (row = ckpt id,
                     // payload = 8-byte begin LSN of the same ckpt)
};

/// The payload, key and before-image bytes one LogRecord owns. Each
/// non-empty field is one heap allocation of exactly its size, and an
/// empty field allocates nothing (see LogManager for why). Copies are
/// deep; a moved-from record is empty.
class LogRecordBytes {
 public:
  enum Field { kPayload, kKey, kBefore, kFields };

  LogRecordBytes() = default;
  LogRecordBytes(const LogRecordBytes& other);
  LogRecordBytes(LogRecordBytes&& other) noexcept { *this = std::move(other); }
  LogRecordBytes& operator=(const LogRecordBytes& other) {
    return *this = LogRecordBytes(other);
  }
  LogRecordBytes& operator=(LogRecordBytes&& other) noexcept;

  std::span<const uint8_t> field(Field f) const {
    return {bytes_[f].get(), len_[f]};
  }
  /// Copies `n` bytes from `src` into field `f`, which must be empty.
  void Assign(Field f, const void* src, uint32_t n);

 private:
  std::unique_ptr<uint8_t[]> bytes_[kFields];
  uint32_t len_[kFields] = {};
};

/// One recovery-grade WAL record. `lsn` is ordered across all of one
/// engine's worker logs (they share an LsnClock), so multi-partition
/// logs merge deterministically.
struct LogRecord : private LogRecordBytes {
  /// After-image bytes.
  std::span<const uint8_t> payload() const { return field(kPayload); }
  /// Primary key bytes (insert/delete).
  std::span<const uint8_t> key() const { return field(kKey); }
  /// Before-image (column or full row, per `column`). Logged only when
  /// fuzzy checkpointing is enabled: a checkpoint page can capture an
  /// in-flight transaction's writes, and recovery needs before-images
  /// to roll such losers back.
  std::span<const uint8_t> before() const { return field(kBefore); }

  // The narrow fields come first: they fill the bytes' tail padding.
  LogOp op = LogOp::kCommit;
  int16_t table = -1;
  int16_t column = -1;  // -1: full-row payload
  int16_t slice = 0;    // partition that produced the record
  bool torn = false;  // injected torn write: record reached the device
                      // with a bad checksum; recovery must stop here
  /// Compensation log record: a redo-only record written while rolling
  /// a transaction back (ARIES-style). CLRs repeat the undo writes
  /// during recovery REDO and are never themselves undone.
  bool clr = false;
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  uint64_t row = 0;

 private:
  friend class LogManager;
};

static_assert(sizeof(LogRecord) <= 72, "stable-log records stay compact");

/// The LSN source of one engine, shared by its per-worker logs so that
/// their records merge into one order.
class LsnClock {
 public:
  uint64_t Next() { return ++next_; }

 private:
  uint64_t next_ = 0;
};

/// Asynchronous write-ahead logging. The paper configures every system
/// with asynchronous logging "so there is no delay due to I/O in the
/// critical path" (Section 3). What remains on the critical path — and
/// what this class models for the simulator — is formatting records into
/// a sequential in-memory buffer: the one OLTP data stream with perfect
/// spatial locality.
///
/// Records are also retained in a "stable log" (the simulated durable
/// medium) so Engine::Replay can REDO committed work onto a fresh
/// database (see engine/engine.h). The stable log is a list of
/// fixed-size blocks of records: a block is allocated whole and never
/// moves, so growing the log copies no record, and truncation frees the
/// blocks it empties. A 72-byte record holds its payload, key and
/// before-image behind three pointers and three lengths, but each
/// non-empty field is still its own heap allocation of exactly its
/// size, made in that order: the cache simulator sees host addresses,
/// and those allocations decide where the index nodes a run allocates
/// land (docs/engines.md). Packing the bytes into arenas would move
/// them, so it waits for simulated addresses that do not follow the
/// host heap.
class LogManager {
 public:
  /// `clock` hands out the LSNs; it must outlive the log.
  explicit LogManager(LsnClock* clock, uint32_t buffer_bytes = 1 << 20)
      : clock_(clock),
        capacity_(buffer_bytes),
        buffer_(std::make_unique<uint8_t[]>(buffer_bytes)) {}

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Appends a record. The in-memory ring write (header + payload + key)
  /// is traced through `core`; the record is retained durably.
  /// Returns the record's LSN.
  uint64_t Append(mcsim::CoreSim* core, LogOp op, uint64_t txn_id,
                  int16_t table, uint64_t row, int16_t column,
                  const void* payload, uint32_t payload_bytes,
                  const void* key = nullptr, uint32_t key_bytes = 0,
                  int16_t slice = 0, const void* before = nullptr,
                  uint32_t before_bytes = 0, bool clr = false);

  /// Convenience wrappers.
  uint64_t LogUpdate(mcsim::CoreSim* core, uint64_t txn_id, int16_t table,
                     uint64_t row, int16_t column, const void* payload,
                     uint32_t payload_bytes, int16_t slice = 0,
                     const void* before = nullptr,
                     uint32_t before_bytes = 0, bool clr = false) {
    return Append(core, LogOp::kUpdate, txn_id, table, row, column,
                  payload, payload_bytes, nullptr, 0, slice, before,
                  before_bytes, clr);
  }
  uint64_t LogCommit(mcsim::CoreSim* core, uint64_t txn_id) {
    return Append(core, LogOp::kCommit, txn_id, -1, 0, -1, nullptr, 0);
  }
  uint64_t LogAbort(mcsim::CoreSim* core, uint64_t txn_id) {
    return Append(core, LogOp::kAbort, txn_id, -1, 0, -1, nullptr, 0);
  }

  /// Retained record `i`, oldest first (`i < records()`).
  const LogRecord& record(uint64_t i) const {
    const uint64_t at = head_ + i;
    return blocks_[at / kBlockRecords][at % kBlockRecords];
  }

  uint64_t bytes_logged() const { return bytes_logged_; }
  /// Records currently retained (appended and not truncated).
  uint64_t records() const { return records_; }
  uint64_t flushes() const { return flushes_; }
  uint32_t capacity() const { return capacity_; }

  /// Number of leading stable-log records the asynchronous background
  /// writer has pushed to the durable device. Records past this prefix
  /// still sit in the in-memory ring and are lost by a crash before the
  /// next flush (the paper's async-logging durability window).
  uint64_t flushed_records() const { return flushed_records_; }

  /// Forces the asynchronous writer: everything appended so far becomes
  /// durable. Called on every checkpoint capture tick — the WAL rule:
  /// a captured page may hold effects of records still in the ring, and
  /// those records must reach the device before the page does.
  void FlushAll() {
    if (flushed_records_ == records_) return;
    flushed_records_ = records_;
    ++flushes_;
  }

  /// Force-at-append mode: every record is durable as soon as it is
  /// written. The non-partitioned engines enable this under fuzzy
  /// checkpointing — their capturing worker can snapshot any worker's
  /// in-place effects at any instant, and only a log's own worker
  /// flushes it, so the WAL rule degenerates to a synchronous
  /// log device. (Partitioned engines keep the asynchronous window:
  /// capture is partition-local behind the worker's own FlushAll.)
  void set_force(bool on) { force_ = on; }

  /// Attaches a fault injector; null detaches. When armed, the
  /// `log.torn_record` point marks appended records as torn.
  void set_fault_injector(fault::FaultInjector* injector) {
    fault_ = injector;
  }

  /// Drops retained records with `lsn < upto_lsn` (post-checkpoint
  /// truncation to the recovery anchor), except a transaction that
  /// straddles it: its staged (MVCC) update reaches the table only at
  /// commit. The truncation LSN is recorded so recovery can distinguish
  /// a truncated log from an empty one — both have zero records, but
  /// only one is allowed to start replay at an LSN other than 0.
  /// Per-worker logs append in LSN order, one transaction at a time,
  /// so this is a prefix erase.
  void Truncate(uint64_t upto_lsn);

  /// First LSN recovery may see: records below this were truncated away
  /// behind a durable checkpoint. 0 = never truncated.
  uint64_t truncation_lsn() const { return truncation_lsn_; }

  /// Cumulative records dropped by Truncate().
  uint64_t truncated_records() const { return truncated_records_; }

  /// Records appended over the log's lifetime, including truncated
  /// ones — the "untruncated log length" a full-replay recovery would
  /// have had to process.
  uint64_t appended_records() const {
    return records_ + truncated_records_;
  }

  /// Records per stable-log block (576 KiB of LogRecords, far above
  /// glibc's 128 KiB mmap threshold, so a block lives outside the heap).
  static constexpr uint64_t kBlockRecords = 8192;

 private:
  static constexpr uint32_t kHeaderBytes = 32;
  static uint32_t Align8(uint32_t n) { return (n + 7) & ~7u; }

  void Reserve(uint32_t bytes) {
    // A single record larger than the whole ring can never fit: wrapping
    // the cursor alone would run the memcpy past the end of `buffer_`.
    // Grow the ring (doubling) — real WALs size the buffer to the
    // largest record the schema can produce.
    while (Align8(bytes) + 8 > capacity_) {
      uint32_t grown = capacity_ * 2;
      auto bigger = std::make_unique<uint8_t[]>(grown);
      std::memcpy(bigger.get(), buffer_.get(), capacity_);
      buffer_ = std::move(bigger);
      capacity_ = grown;
    }
    if (offset_ + Align8(bytes) + 8 > capacity_) {
      // Simulated asynchronous flush: the background writer drained the
      // buffer; the worker only wraps its cursor. Everything appended so
      // far is now on the durable device.
      offset_ = 0;
      ++flushes_;
      flushed_records_ = records_;
    }
  }

  LogRecord& mutable_record(uint64_t i) {
    const uint64_t at = head_ + i;
    return blocks_[at / kBlockRecords][at % kBlockRecords];
  }

  /// The slot after the last retained record, in a new block if the
  /// last one is full.
  LogRecord& NextSlot() {
    if (head_ + records_ == blocks_.size() * kBlockRecords) {
      blocks_.push_back(std::make_unique<LogRecord[]>(kBlockRecords));
    }
    return mutable_record(records_);
  }

  /// Shared with the engine's other logs; every other member is
  /// confined to the owning worker.
  LsnClock* clock_;
  uint32_t capacity_;
  uint32_t offset_ = 0;
  uint64_t bytes_logged_ = 0;
  uint64_t flushes_ = 0;
  uint64_t flushed_records_ = 0;
  uint64_t truncated_records_ = 0;
  uint64_t truncation_lsn_ = 0;
  bool force_ = false;
  fault::FaultInjector* fault_ = nullptr;
  std::unique_ptr<uint8_t[]> buffer_;
  /// The stable log: the oldest retained record is slot `head_` of the
  /// first block.
  std::vector<std::unique_ptr<LogRecord[]>> blocks_;
  uint64_t head_ = 0;
  uint64_t records_ = 0;
};

}  // namespace imoltp::txn

#endif  // IMOLTP_TXN_LOG_MANAGER_H_
