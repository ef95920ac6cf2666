#include "storage/table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace imoltp::storage {

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

void DefaultRowGenerator(const Schema& schema, RowId row, uint64_t seed,
                         uint8_t* out) {
  for (uint32_t c = 0; c < schema.num_columns(); ++c) {
    if (schema.column_type(c) == ColumnType::kLong) {
      const int64_t v = (c == 0) ? static_cast<int64_t>(row)
                                 : static_cast<int64_t>(
                                       Mix(seed ^ (row * 31 + c)));
      schema.SetLong(out, c, v);
    } else {
      char* dst = reinterpret_cast<char*>(schema.ColumnPtr(out, c));
      if (c == 0) {
        // Key digits lead, filler follows: realistic string keys differ
        // in their first bytes, so comparisons early-exit (the spatial
        // locality the paper's Section 6.2 measures). The encoding is
        // unique but not numeric-order-preserving.
        const int n = std::snprintf(dst, kStringBytes, "%llu",
                                    static_cast<unsigned long long>(row));
        for (uint32_t i = static_cast<uint32_t>(n); i < kStringBytes;
             ++i) {
          dst[i] = 'a';
        }
      } else {
        const uint64_t h = Mix(seed ^ (row * 31 + c));
        for (uint32_t i = 0; i < kStringBytes; ++i) {
          dst[i] = static_cast<char>('a' + ((h >> (i % 56)) + i) % 26);
        }
      }
    }
  }
}

std::vector<RowId> Table::PageRows(mcsim::CoreSim* /*core*/,
                                   uint64_t page_no) {
  const RowId lo = page_no * kRowsPerCheckpointPage;
  const RowId hi = std::min(lo + kRowsPerCheckpointPage, num_rows());
  std::vector<RowId> rows;
  for (RowId r = lo; r < hi; ++r) rows.push_back(r);
  return rows;
}

// ---------------------------------------------------------------------------
// HeapTable: rows materialized in real memory.
// ---------------------------------------------------------------------------

class HeapTable final : public Table {
 public:
  HeapTable(std::string name, Schema schema, uint64_t initial_rows,
            const TableOptions& options)
      : Table(std::move(name), std::move(schema)),
        stride_(options.row_stride),
        seed_(options.generator_seed) {
    const RowGenerator gen =
        options.generator ? options.generator : DefaultRowGenerator;
    segments_.reserve(initial_rows / kRowsPerSegment + 1);
    for (RowId r = 0; r < initial_rows; ++r) {
      uint8_t* slot = AllocateSlot();
      gen(schema_, options.generator_row_offset + r, seed_, slot);
    }
  }

  uint64_t num_rows() const override { return num_rows_; }

  bool ReadRow(mcsim::CoreSim* core, RowId row, uint8_t* out) override {
    if (row >= num_rows() || deleted_[row]) return false;
    const uint8_t* slot = SlotPtr(row);
    core->Read(reinterpret_cast<uint64_t>(slot), schema_.row_bytes());
    std::memcpy(out, slot, schema_.row_bytes());
    return true;
  }

  bool WriteColumn(mcsim::CoreSim* core, RowId row, uint32_t col,
                   const void* value) override {
    if (row >= num_rows() || deleted_[row]) return false;
    uint8_t* slot = SlotPtr(row);
    uint8_t* dst = schema_.ColumnPtr(slot, col);
    core->Write(reinterpret_cast<uint64_t>(dst), schema_.column_width(col));
    std::memcpy(dst, value, schema_.column_width(col));
    dirty_.insert(CheckpointPageOf(row));
    return true;
  }

  RowId Append(mcsim::CoreSim* core, const uint8_t* row) override {
    uint8_t* slot = AllocateSlot();
    std::memcpy(slot, row, schema_.row_bytes());
    core->Write(reinterpret_cast<uint64_t>(slot), schema_.row_bytes());
    const RowId id = num_rows() - 1;
    dirty_.insert(CheckpointPageOf(id));
    return id;
  }

  bool Delete(mcsim::CoreSim* core, RowId row) override {
    if (row >= num_rows() || deleted_[row]) return false;
    deleted_[row] = true;
    core->Write(reinterpret_cast<uint64_t>(SlotPtr(row)), 8);
    dirty_.insert(CheckpointPageOf(row));
    return true;
  }

  std::vector<uint64_t> DirtyPages() const override {
    std::vector<uint64_t> pages(dirty_.begin(), dirty_.end());
    std::sort(pages.begin(), pages.end());
    return pages;
  }

  void RestoreRow(mcsim::CoreSim* core, RowId row, const uint8_t* image,
                  bool present) override {
    while (num_rows() <= row) {
      AllocateSlot();
      deleted_.back() = true;  // gap rows stay absent until restored
    }
    deleted_[row] = !present;
    if (present) {
      uint8_t* slot = SlotPtr(row);
      std::memcpy(slot, image, schema_.row_bytes());
      core->Write(reinterpret_cast<uint64_t>(slot), schema_.row_bytes());
    }
    dirty_.insert(CheckpointPageOf(row));
  }

 private:
  static constexpr uint64_t kRowsPerSegment = 4096;

  uint8_t* AllocateSlot() {
    const RowId row = num_rows_++;
    const uint64_t seg = row / kRowsPerSegment;
    if (seg >= segments_.size()) {
      // Not zero-filled: every slot is written before it is read, and
      // pages no row reaches never become resident.
      segments_.push_back(std::make_unique_for_overwrite<uint8_t[]>(
          kRowsPerSegment * stride_));
    }
    deleted_.push_back(false);
    return segments_[seg].get() + (row % kRowsPerSegment) * stride_;
  }

  const uint8_t* SlotPtr(RowId row) const {
    return segments_[row / kRowsPerSegment].get() +
           (row % kRowsPerSegment) * stride_;
  }
  uint8_t* SlotPtr(RowId row) {
    return segments_[row / kRowsPerSegment].get() +
           (row % kRowsPerSegment) * stride_;
  }

  uint32_t stride_;
  uint64_t seed_;
  uint64_t num_rows_ = 0;
  std::vector<std::unique_ptr<uint8_t[]>> segments_;
  std::vector<bool> deleted_;
  std::unordered_set<uint64_t> dirty_;  // ctor population stays clean
};

// ---------------------------------------------------------------------------
// SparseTable: nominal address space, deterministic values, write overlay.
// ---------------------------------------------------------------------------

class SparseTable final : public Table {
 public:
  SparseTable(std::string name, Schema schema, uint64_t initial_rows,
              const TableOptions& options)
      : Table(std::move(name), std::move(schema)),
        stride_(options.row_stride),
        seed_(options.generator_seed),
        generator_(options.generator ? options.generator
                                     : DefaultRowGenerator),
        row_offset_(options.generator_row_offset),
        num_rows_(initial_rows) {
    // A private nominal address range, far away from real heap pointers
    // and from synthetic code addresses (see mcsim::CodeSpace).
    static uint64_t next_base = 1ULL << 44;
    base_ = next_base;
    next_base += initial_rows * static_cast<uint64_t>(stride_) + (1ULL << 30);
  }

  uint64_t num_rows() const override { return num_rows_; }

  bool ReadRow(mcsim::CoreSim* core, RowId row, uint8_t* out) override {
    if (row >= num_rows()) return false;
    core->Read(Address(row), schema_.row_bytes());
    auto it = overlay_.find(row);
    if (it != overlay_.end()) {
      if (it->second.deleted) return false;
      std::memcpy(out, it->second.bytes.data(), schema_.row_bytes());
      return true;
    }
    generator_(schema_, row_offset_ + row, seed_, out);
    return true;
  }

  bool WriteColumn(mcsim::CoreSim* core, RowId row, uint32_t col,
                   const void* value) override {
    if (row >= num_rows()) return false;
    core->Write(Address(row) + schema_.column_offset(col),
                schema_.column_width(col));
    OverlayRow& o = Materialize(row);
    if (o.deleted) return false;
    std::memcpy(o.bytes.data() + schema_.column_offset(col), value,
                schema_.column_width(col));
    return true;
  }

  RowId Append(mcsim::CoreSim* core, const uint8_t* row) override {
    const RowId id = num_rows_++;
    OverlayRow& o = overlay_[id];
    o.bytes.assign(row, row + schema_.row_bytes());
    core->Write(Address(id), schema_.row_bytes());
    return id;
  }

  bool Delete(mcsim::CoreSim* core, RowId row) override {
    if (row >= num_rows()) return false;
    OverlayRow& o = Materialize(row);
    if (o.deleted) return false;
    o.deleted = true;
    core->Write(Address(row), 8);
    return true;
  }

  std::vector<uint64_t> DirtyPages() const override {
    // The overlay holds exactly the rows that diverged from the
    // deterministic generator, so dirty pages fall out of its keys.
    std::unordered_set<uint64_t> pages;
    for (const auto& [row, o] : overlay_) {
      pages.insert(CheckpointPageOf(row));
    }
    std::vector<uint64_t> sorted(pages.begin(), pages.end());
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  void RestoreRow(mcsim::CoreSim* core, RowId row, const uint8_t* image,
                  bool present) override {
    if (row >= num_rows_) {
      // Gap rows would otherwise read as generator-present; tombstone
      // them until (unless) they are restored explicitly.
      for (RowId r = num_rows_; r < row; ++r) overlay_[r].deleted = true;
      num_rows_ = row + 1;
    }
    OverlayRow& o = overlay_[row];
    o.deleted = !present;
    if (present) {
      o.bytes.assign(image, image + schema_.row_bytes());
      core->Write(Address(row), schema_.row_bytes());
    }
  }

 private:
  struct OverlayRow {
    std::vector<uint8_t> bytes;
    bool deleted = false;
  };

  /// The row's place in the nominal address range.
  uint64_t Address(RowId row) const {
    return base_ + row * static_cast<uint64_t>(stride_);
  }

  OverlayRow& Materialize(RowId row) {
    auto [it, inserted] = overlay_.try_emplace(row);
    if (inserted) {
      it->second.bytes.resize(schema_.row_bytes());
      generator_(schema_, row_offset_ + row, seed_,
                 it->second.bytes.data());
    }
    return it->second;
  }

  uint32_t stride_;
  uint64_t seed_;
  RowGenerator generator_;
  uint64_t row_offset_;
  uint64_t num_rows_;
  uint64_t base_;
  std::unordered_map<RowId, OverlayRow> overlay_;
};

std::unique_ptr<Table> CreateTable(std::string name, Schema schema,
                                   uint64_t initial_rows,
                                   const TableOptions& options) {
  TableOptions opts = options;
  if (opts.row_stride == 0) {
    opts.row_stride = schema.row_bytes() + 8;  // slot header
  }
  if (opts.row_stride < schema.row_bytes()) {
    opts.row_stride = schema.row_bytes();
  }
  const uint64_t footprint = initial_rows * opts.row_stride;
  if (footprint <= opts.max_resident_bytes) {
    return std::make_unique<HeapTable>(std::move(name), std::move(schema),
                                       initial_rows, opts);
  }
  return std::make_unique<SparseTable>(std::move(name), std::move(schema),
                                       initial_rows, opts);
}

}  // namespace imoltp::storage
