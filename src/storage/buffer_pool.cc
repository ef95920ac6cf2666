#include "storage/buffer_pool.h"

#include <bit>
#include <cstring>

namespace imoltp::storage {

namespace {

uint64_t HashPage(PageId p) {
  uint64_t x = p;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

BufferPool::BufferPool(uint32_t num_frames, uint32_t page_bytes)
    : num_frames_(num_frames), page_bytes_(page_bytes) {
  const uint64_t table_size = std::bit_ceil<uint64_t>(num_frames * 2ULL);
  table_mask_ = table_size - 1;
  table_.assign(table_size, TableSlot());
  frames_.assign(num_frames, FrameMeta());
  frame_data_ = std::make_unique_for_overwrite<uint8_t[]>(
      static_cast<uint64_t>(num_frames) * page_bytes);
}

uint32_t BufferPool::FindFrame(PageId page_id) const {
  uint64_t slot = HashPage(page_id) & table_mask_;
  while (table_[slot].frame != kNoFrame) {
    if (table_[slot].page_id == page_id) return table_[slot].frame;
    slot = (slot + 1) & table_mask_;
  }
  return kNoFrame;
}

void BufferPool::TableInsert(PageId page_id, uint32_t frame) {
  uint64_t slot = HashPage(page_id) & table_mask_;
  while (table_[slot].frame != kNoFrame) slot = (slot + 1) & table_mask_;
  table_[slot].page_id = page_id;
  table_[slot].frame = frame;
}

void BufferPool::TableErase(PageId page_id) {
  // Backward-shift deletion for linear probing.
  uint64_t slot = HashPage(page_id) & table_mask_;
  while (table_[slot].frame != kNoFrame &&
         table_[slot].page_id != page_id) {
    slot = (slot + 1) & table_mask_;
  }
  if (table_[slot].frame == kNoFrame) return;
  uint64_t hole = slot;
  uint64_t probe = (hole + 1) & table_mask_;
  while (table_[probe].frame != kNoFrame) {
    const uint64_t home = HashPage(table_[probe].page_id) & table_mask_;
    // Can `probe`'s entry legally move into `hole`? Standard Robin-Hood
    // style reachability test for wrap-around ranges.
    const bool movable =
        (hole < probe)
            ? (home <= hole || home > probe)
            : (home <= hole && home > probe);
    if (movable) {
      table_[hole] = table_[probe];
      hole = probe;
    }
    probe = (probe + 1) & table_mask_;
  }
  table_[hole] = TableSlot();
}

uint32_t BufferPool::Evict() {
  // CLOCK: sweep frames, clearing reference bits; pinned frames skipped.
  for (uint32_t sweep = 0; sweep < num_frames_ * 2 + 1; ++sweep) {
    FrameMeta& f = frames_[clock_hand_];
    const uint32_t victim = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_frames_;
    if (f.pin_count > 0) continue;
    if (f.ref) {
      f.ref = false;
      continue;
    }
    if (f.initialized && f.page_id != kInvalidPage) {
      if (f.dirty) {
        auto& copy = backing_store_[f.page_id];
        copy.assign(frame_data_.get() +
                        static_cast<uint64_t>(victim) * page_bytes_,
                    frame_data_.get() +
                        static_cast<uint64_t>(victim + 1) * page_bytes_);
        ++stats_.dirty_writebacks;
      }
      TableErase(f.page_id);
      ++stats_.evictions;
    }
    f = FrameMeta();
    return victim;
  }
  return kNoFrame;  // everything pinned
}

uint8_t* BufferPool::FixPage(mcsim::CoreSim* core, PageId page_id) {
  ++stats_.fixes;

  // Page-table probe: the traced walk over the open-addressing slots.
  uint64_t slot = HashPage(page_id) & table_mask_;
  uint32_t frame = kNoFrame;
  while (table_[slot].frame != kNoFrame) {
    core->Read(TableSlotAddr(slot), sizeof(TableSlot));
    if (table_[slot].page_id == page_id) {
      frame = table_[slot].frame;
      break;
    }
    slot = (slot + 1) & table_mask_;
  }
  if (frame == kNoFrame) {
    core->Read(TableSlotAddr(slot), sizeof(TableSlot));  // miss probe
  }

  if (frame != kNoFrame) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
    frame = Evict();
    if (frame == kNoFrame) return nullptr;
    FrameMeta& f = frames_[frame];
    f.page_id = page_id;
    f.initialized = true;
    uint8_t* data =
        frame_data_.get() + static_cast<uint64_t>(frame) * page_bytes_;
    auto it = backing_store_.find(page_id);
    if (it != backing_store_.end()) {
      std::memcpy(data, it->second.data(), page_bytes_);
    } else {
      std::memset(data, 0, page_bytes_);
      ++known_pages_;
    }
    TableInsert(page_id, frame);
  }

  // Latch + pin: a write to the frame header.
  FrameMeta& f = frames_[frame];
  ++f.pin_count;
  f.ref = true;
  core->Write(reinterpret_cast<uint64_t>(&f), sizeof(uint32_t) * 2);
  return frame_data_.get() + static_cast<uint64_t>(frame) * page_bytes_;
}

void BufferPool::UnfixPage(mcsim::CoreSim* core, PageId page_id,
                           bool dirty) {
  const uint32_t frame = FindFrame(page_id);
  if (frame == kNoFrame) return;
  FrameMeta& f = frames_[frame];
  if (f.pin_count > 0) --f.pin_count;
  if (dirty) f.dirty = true;
  core->Write(reinterpret_cast<uint64_t>(&f), sizeof(uint32_t) * 2);
}

}  // namespace imoltp::storage
