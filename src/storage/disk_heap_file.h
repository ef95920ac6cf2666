#ifndef IMOLTP_STORAGE_DISK_HEAP_FILE_H_
#define IMOLTP_STORAGE_DISK_HEAP_FILE_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "mcsim/core.h"
#include "storage/buffer_pool.h"
#include "storage/schema.h"
#include "storage/slotted_page.h"
#include "storage/table.h"

namespace imoltp::storage {

/// Heap file of fixed-size rows in slotted pages behind a BufferPool —
/// the disk-based engine archetypes' row storage. Every row access costs
/// a page fix (page-table probe, latch, pin), a slot-directory read, the
/// row bytes, and an unfix, exactly the access path whose overhead the
/// in-memory systems eliminate.
///
/// RowIds encode (page_no << 16 | slot); a checkpoint page is a heap
/// page. The file has no row address of its own: a row lives wherever
/// its page's frame is.
class DiskHeapFile final : public Table {
 public:
  DiskHeapFile(std::string name, BufferPool* pool, uint32_t file_id,
               Schema schema);

  uint64_t num_rows() const override { return num_rows_; }

  bool ReadRow(mcsim::CoreSim* core, RowId row, uint8_t* out) override;
  /// False also when the page cannot be fixed.
  bool WriteColumn(mcsim::CoreSim* core, RowId row, uint32_t col,
                   const void* value) override;
  RowId Append(mcsim::CoreSim* core, const uint8_t* row) override;
  bool Delete(mcsim::CoreSim* core, RowId row) override;

  /// Fixes the page and lists its directory slots (none for an
  /// untouched page).
  std::vector<RowId> PageRows(mcsim::CoreSim* core,
                              uint64_t page_no) override;

  /// Page numbers mutated since the last MarkClean().
  std::vector<uint64_t> DirtyPages() const override;
  void MarkClean() override;

  /// Places `image` at exactly `row` (page, slot), formatting the page
  /// if needed; idempotent for an occupied slot of the same size. A row
  /// the page cannot hold is left out. `present == false` deletes the
  /// row.
  void RestoreRow(mcsim::CoreSim* core, RowId row, const uint8_t* image,
                  bool present) override;

  static uint64_t PageNo(RowId row) { return row >> 16; }
  static uint16_t Slot(RowId row) { return static_cast<uint16_t>(row); }

 private:
  PageId GlobalPage(uint64_t page_no) const {
    return (static_cast<uint64_t>(file_id_) << 40) | page_no;
  }

  void MarkDirty(uint64_t page_no) { dirty_.insert(page_no); }

  BufferPool* pool_;
  uint32_t file_id_;
  uint64_t num_rows_ = 0;
  uint64_t append_page_ = 0;  // first page with free space
  std::unordered_set<uint64_t> dirty_;  // checkpoint dirty-page table
};

}  // namespace imoltp::storage

#endif  // IMOLTP_STORAGE_DISK_HEAP_FILE_H_
