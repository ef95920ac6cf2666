#ifndef IMOLTP_STORAGE_TABLE_H_
#define IMOLTP_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mcsim/core.h"
#include "storage/schema.h"

namespace imoltp::storage {

using RowId = uint64_t;
inline constexpr RowId kInvalidRow = UINT64_MAX;

/// Row storage. Three implementations behind one interface:
///
///   - HeapTable: rows materialized in real memory (segmented arena).
///     Used whenever the configured footprint is feasible to allocate.
///   - SparseTable: rows spread over a *nominal* address space with
///     deterministic value generation and a write overlay; used for the
///     paper's 10GB/100GB configurations (see DESIGN.md, Substitutions).
///   - DiskHeapFile (disk_heap_file.h): slotted pages behind a
///     BufferPool, the disk-based archetypes' row store.
///
/// Every accessor takes the worker's CoreSim so the touched cache lines
/// flow through the simulated hierarchy. Tables are engine-neutral; the
/// engines add their own access-path overheads (buffer pool code,
/// versioning) on top.
class Table {
 public:
  virtual ~Table() = default;

  const Schema& schema() const { return schema_; }
  const std::string& name() const { return name_; }

  /// In-memory tables: the RowId space, deleted rows included. The disk
  /// file: its live rows.
  virtual uint64_t num_rows() const = 0;

  /// Copies the full row into `out` (schema().row_bytes() bytes) and
  /// traces the read. Returns false for a deleted/absent row.
  virtual bool ReadRow(mcsim::CoreSim* core, RowId row, uint8_t* out) = 0;

  /// Overwrites one column in place and traces the write. Returns false
  /// for a deleted/absent row.
  virtual bool WriteColumn(mcsim::CoreSim* core, RowId row, uint32_t col,
                           const void* value) = 0;

  /// Overwrites every column of `row` from `image`, one WriteColumn per
  /// column (each traced).
  void WriteRow(mcsim::CoreSim* core, RowId row, const uint8_t* image) {
    for (uint32_t c = 0; c < schema_.num_columns(); ++c) {
      WriteColumn(core, row, c, schema_.ColumnPtr(image, c));
    }
  }

  /// Appends a row; returns its RowId (kInvalidRow when the store is
  /// full). Traces the write.
  virtual RowId Append(mcsim::CoreSim* core, const uint8_t* row) = 0;

  /// Marks a row deleted. Returns false if it was absent already.
  virtual bool Delete(mcsim::CoreSim* core, RowId row) = 0;

  /// The RowIds checkpoint capture copies for page `page_no`, present
  /// or not. In-memory tables: the page's 64 logical rows below
  /// num_rows(), untraced. The disk file fixes the page and lists its
  /// directory slots.
  virtual std::vector<RowId> PageRows(mcsim::CoreSim* core,
                                      uint64_t page_no);

  /// Sorted pages mutated since the last MarkClean() (initial
  /// population is clean — recovery regenerates it deterministically,
  /// so a fuzzy checkpoint only needs the pages that diverged).
  /// Checkpoints are self-contained: capture never resets it.
  virtual std::vector<uint64_t> DirtyPages() const = 0;

  /// Forgets the pages dirtied so far; called once initial population
  /// is done. A no-op for tables that are clean from construction.
  virtual void MarkClean() {}

  /// Places a row image at exactly `row` during recovery, growing the
  /// rid space if needed; `present == false` restores the row as
  /// deleted. Rows allocated only to bridge a rid gap stay absent until
  /// explicitly restored, so lost-tail inserts never resurface as
  /// garbage.
  virtual void RestoreRow(mcsim::CoreSim* core, RowId row,
                          const uint8_t* image, bool present) = 0;

 protected:
  /// Checkpoint page granularity for in-memory tables: 64 consecutive
  /// RowIds per logical page (≈ a few KB of row data, the same order of
  /// magnitude as a disk page).
  static constexpr uint64_t kRowsPerCheckpointPage = 64;

  /// Logical page a RowId belongs to for checkpoint capture.
  static uint64_t CheckpointPageOf(RowId row) {
    return row / kRowsPerCheckpointPage;
  }

  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  std::string name_;
  Schema schema_;
};

/// Deterministic initial-row generator: fills a row buffer for RowId.
/// Sparse tables call it on demand; heap tables call it at creation.
using RowGenerator = void (*)(const Schema& schema, RowId row, uint64_t seed,
                              uint8_t* out);

/// Default generator: column 0 = row id (Long) or decimal string of the
/// row id (String); other columns derived from a seeded hash.
void DefaultRowGenerator(const Schema& schema, RowId row, uint64_t seed,
                         uint8_t* out);

/// Options controlling table placement.
struct TableOptions {
  /// Bytes of address space each row occupies (>= schema row bytes).
  /// Dense OLTP pages have per-row overhead (slot headers, padding);
  /// sparse tables use this to spread rows over the nominal size.
  uint32_t row_stride = 0;  // 0: derived from schema (+8 header bytes)

  /// If the full footprint (num_rows * stride) exceeds this, a
  /// SparseTable is used instead of a HeapTable.
  uint64_t max_resident_bytes = 256ULL << 20;

  /// Seed for deterministic sparse-row generation.
  uint64_t generator_seed = 0x1234;

  /// Generator for initial rows.
  RowGenerator generator = nullptr;  // nullptr: DefaultRowGenerator

  /// Added to the local RowId before calling the generator, so one
  /// logical table split across partition slices generates globally
  /// consistent rows.
  uint64_t generator_row_offset = 0;
};

/// Factory: picks HeapTable or SparseTable by footprint (see DESIGN.md).
std::unique_ptr<Table> CreateTable(std::string name, Schema schema,
                                   uint64_t initial_rows,
                                   const TableOptions& options);

}  // namespace imoltp::storage

#endif  // IMOLTP_STORAGE_TABLE_H_
