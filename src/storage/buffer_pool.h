#ifndef IMOLTP_STORAGE_BUFFER_POOL_H_
#define IMOLTP_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mcsim/core.h"

namespace imoltp::storage {

using PageId = uint64_t;
inline constexpr PageId kInvalidPage = UINT64_MAX;

/// The buffer pool of the disk-based engine archetypes: fixed frame pool,
/// open-addressing page table, CLOCK replacement, pin counts, per-frame
/// latches. The paper's in-memory systems omit exactly this component;
/// its page-table probe and frame bookkeeping are a large part of the
/// disk-based systems' per-access overhead (Harizopoulos et al., cited as
/// [8] in the paper).
///
/// Pages evicted while dirty are copied to an in-memory backing store and
/// restored on the next fix — the pool is functionally correct at any
/// capacity, which the eviction tests and the buffer-pool ablation bench
/// rely on. In the paper's configurations the data is memory-resident, so
/// measured windows run without evictions.
///
/// Frames are first-touch: the frame array is allocated uninitialized
/// and FixPage zero-fills or restores a frame before handing it out, so
/// resident memory tracks the pages in use, not the pool's capacity.
///
/// Page-table probes and frame-header touches flow through the simulated
/// hierarchy (they are real memory the engine walks on every access).
///
/// Page bytes returned by FixPage stay valid until the matching
/// UnfixPage: the pin count blocks eviction.
class BufferPool {
 public:
  struct Stats {
    uint64_t fixes = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirty_writebacks = 0;
  };

  BufferPool(uint32_t num_frames, uint32_t page_bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Fixes `page_id` in memory and returns its frame data (page_bytes
  /// bytes). A page seen for the first time comes up zero-filled (callers
  /// format it). Returns nullptr only if every frame is pinned.
  uint8_t* FixPage(mcsim::CoreSim* core, PageId page_id);

  /// Releases a fix. `dirty` marks the frame for writeback on eviction.
  void UnfixPage(mcsim::CoreSim* core, PageId page_id, bool dirty);

  uint32_t page_bytes() const { return page_bytes_; }
  uint32_t num_frames() const { return num_frames_; }
  const Stats& stats() const { return stats_; }

  /// Number of distinct pages ever created (resident + backed).
  uint64_t num_pages() const { return known_pages_; }

  /// True if the page is currently resident (testing hook).
  bool IsResident(PageId page_id) const {
    return FindFrame(page_id) != kNoFrame;
  }

 private:
  static constexpr uint32_t kNoFrame = UINT32_MAX;

  struct FrameMeta {
    PageId page_id = kInvalidPage;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool ref = false;        // CLOCK reference bit
    bool initialized = false;
  };

  // Open-addressing page-table entry; empty when frame == kNoFrame.
  struct TableSlot {
    PageId page_id = kInvalidPage;
    uint32_t frame = kNoFrame;
  };

  uint32_t FindFrame(PageId page_id) const;
  void TableInsert(PageId page_id, uint32_t frame);
  void TableErase(PageId page_id);
  uint32_t Evict();
  uint64_t TableSlotAddr(uint64_t slot) const {
    return reinterpret_cast<uint64_t>(&table_[slot]);
  }

  uint32_t num_frames_;
  uint32_t page_bytes_;
  uint64_t table_mask_;
  uint64_t known_pages_ = 0;
  uint32_t clock_hand_ = 0;
  Stats stats_;
  std::vector<TableSlot> table_;
  std::vector<FrameMeta> frames_;
  std::unique_ptr<uint8_t[]> frame_data_;
  std::unordered_map<PageId, std::vector<uint8_t>> backing_store_;
};

}  // namespace imoltp::storage

#endif  // IMOLTP_STORAGE_BUFFER_POOL_H_
