#include "storage/disk_heap_file.h"

#include <algorithm>
#include <cstring>

namespace imoltp::storage {

DiskHeapFile::DiskHeapFile(std::string name, BufferPool* pool,
                           uint32_t file_id, Schema schema)
    : Table(std::move(name), std::move(schema)),
      pool_(pool),
      file_id_(file_id) {}

RowId DiskHeapFile::Append(mcsim::CoreSim* core, const uint8_t* row) {
  for (;;) {
    const PageId pid = GlobalPage(append_page_);
    uint8_t* page = pool_->FixPage(core, pid);
    if (page == nullptr) return kInvalidRow;
    SlottedPage::Header* header =
        reinterpret_cast<SlottedPage::Header*>(page);
    if (header->page_bytes == 0) {
      SlottedPage::Format(page,
                          static_cast<uint16_t>(pool_->page_bytes()));
    }
    core->Read(reinterpret_cast<uint64_t>(page), 16);  // header
    const uint16_t slot =
        SlottedPage::Insert(page, row,
                            static_cast<uint16_t>(schema_.row_bytes()));
    if (slot != SlottedPage::kInvalidSlot) {
      const uint8_t* rec = SlottedPage::Get(page, slot);
      core->Write(reinterpret_cast<uint64_t>(rec), schema_.row_bytes());
      pool_->UnfixPage(core, pid, /*dirty=*/true);
      ++num_rows_;
      MarkDirty(append_page_);
      return (append_page_ << 16) | slot;
    }
    pool_->UnfixPage(core, pid, /*dirty=*/false);
    ++append_page_;
  }
}

bool DiskHeapFile::ReadRow(mcsim::CoreSim* core, RowId row,
                           uint8_t* out) {
  const PageId pid = GlobalPage(PageNo(row));
  uint8_t* page = pool_->FixPage(core, pid);
  if (page == nullptr) return false;
  core->Read(reinterpret_cast<uint64_t>(page), 16);  // header + slot dir
  const uint8_t* rec = SlottedPage::Get(page, Slot(row));
  bool ok = rec != nullptr;
  if (ok) {
    core->Read(reinterpret_cast<uint64_t>(rec), schema_.row_bytes());
    std::memcpy(out, rec, schema_.row_bytes());
  }
  pool_->UnfixPage(core, pid, /*dirty=*/false);
  return ok;
}

bool DiskHeapFile::WriteColumn(mcsim::CoreSim* core, RowId row,
                               uint32_t col, const void* value) {
  const PageId pid = GlobalPage(PageNo(row));
  uint8_t* page = pool_->FixPage(core, pid);
  if (page == nullptr) return false;
  core->Read(reinterpret_cast<uint64_t>(page), 16);
  uint8_t* rec = SlottedPage::GetMutable(page, Slot(row));
  bool ok = rec != nullptr;
  if (ok) {
    uint8_t* dst = schema_.ColumnPtr(rec, col);
    core->Write(reinterpret_cast<uint64_t>(dst),
                schema_.column_width(col));
    std::memcpy(dst, value, schema_.column_width(col));
    MarkDirty(PageNo(row));
  }
  pool_->UnfixPage(core, pid, /*dirty=*/ok);
  return ok;
}

bool DiskHeapFile::Delete(mcsim::CoreSim* core, RowId row) {
  const PageId pid = GlobalPage(PageNo(row));
  uint8_t* page = pool_->FixPage(core, pid);
  if (page == nullptr) return false;
  core->Read(reinterpret_cast<uint64_t>(page), 16);
  const bool ok = SlottedPage::Delete(page, Slot(row));
  if (ok) {
    core->Write(reinterpret_cast<uint64_t>(page), 16);
    --num_rows_;
    if (PageNo(row) < append_page_) append_page_ = PageNo(row);
    MarkDirty(PageNo(row));
  }
  pool_->UnfixPage(core, pid, /*dirty=*/ok);
  return ok;
}

void DiskHeapFile::RestoreRow(mcsim::CoreSim* core, RowId row,
                              const uint8_t* image, bool present) {
  if (!present) {
    Delete(core, row);
    return;
  }
  const PageId pid = GlobalPage(PageNo(row));
  uint8_t* page = pool_->FixPage(core, pid);
  if (page == nullptr) return;
  SlottedPage::Header* header =
      reinterpret_cast<SlottedPage::Header*>(page);
  if (header->page_bytes == 0) {
    SlottedPage::Format(page, static_cast<uint16_t>(pool_->page_bytes()));
  }
  const bool existed = SlottedPage::Get(page, Slot(row)) != nullptr;
  const bool ok =
      SlottedPage::InsertAt(page, Slot(row), image,
                            static_cast<uint16_t>(schema_.row_bytes()));
  if (ok) {
    const uint8_t* rec = SlottedPage::Get(page, Slot(row));
    core->Write(reinterpret_cast<uint64_t>(rec), schema_.row_bytes());
    if (!existed) ++num_rows_;
    MarkDirty(PageNo(row));
  }
  pool_->UnfixPage(core, pid, /*dirty=*/ok);
}

std::vector<RowId> DiskHeapFile::PageRows(mcsim::CoreSim* core,
                                          uint64_t page_no) {
  std::vector<RowId> rows;
  const PageId pid = GlobalPage(page_no);
  uint8_t* page = pool_->FixPage(core, pid);
  if (page == nullptr) return rows;
  SlottedPage::Header* header =
      reinterpret_cast<SlottedPage::Header*>(page);
  const uint16_t slots =
      header->page_bytes == 0 ? 0 : SlottedPage::NumSlots(page);
  core->Read(reinterpret_cast<uint64_t>(page), 16);
  pool_->UnfixPage(core, pid, /*dirty=*/false);
  rows.reserve(slots);
  for (uint16_t s = 0; s < slots; ++s) rows.push_back((page_no << 16) | s);
  return rows;
}

std::vector<uint64_t> DiskHeapFile::DirtyPages() const {
  std::vector<uint64_t> pages(dirty_.begin(), dirty_.end());
  std::sort(pages.begin(), pages.end());
  return pages;
}

void DiskHeapFile::MarkClean() { dirty_.clear(); }

}  // namespace imoltp::storage
