#include "txn/checkpoint.h"

namespace imoltp::txn {

namespace {

inline void FnvMix(uint64_t* h, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ULL;
  }
}

}  // namespace

uint64_t CheckpointPage::ComputeChecksum() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  FnvMix(&h, &table, sizeof(table));
  FnvMix(&h, &slice, sizeof(slice));
  FnvMix(&h, &page_no, sizeof(page_no));
  FnvMix(&h, &row_bytes, sizeof(row_bytes));
  if (!rids.empty()) {
    FnvMix(&h, rids.data(), rids.size() * sizeof(uint64_t));
  }
  if (!present.empty()) {
    FnvMix(&h, present.data(), present.size());
  }
  if (!images.empty()) {
    FnvMix(&h, images.data(), images.size());
  }
  return h;
}

uint64_t CheckpointImage::pages() const {
  uint64_t n = 0;
  for (const CheckpointSliceImage& s : slices) n += s.pages.size();
  return n;
}

uint64_t CheckpointImage::bytes() const {
  uint64_t n = 0;
  for (const CheckpointSliceImage& s : slices) {
    for (const CheckpointPage& p : s.pages) n += p.bytes();
    for (const CheckpointIndexImage& idx : s.indexes) {
      n += idx.entries.size() * sizeof(idx.entries[0]);
    }
  }
  return n;
}

bool CheckpointImage::AnyTorn() const {
  for (const CheckpointSliceImage& s : slices) {
    for (const CheckpointPage& p : s.pages) {
      if (p.Torn()) return true;
    }
  }
  return false;
}

CheckpointImage& CheckpointManager::Begin(uint64_t begin_lsn) {
  pending_.emplace();
  pending_->id = next_id_++;
  pending_->begin_lsn = begin_lsn;
  ++stats_.begun;
  return *pending_;
}

uint64_t CheckpointManager::Complete(uint64_t end_lsn) {
  pending_->end_lsn = end_lsn;
  pending_->complete = true;
  stats_.captured_pages += pending_->pages();
  stats_.captured_bytes += pending_->bytes();
  ++stats_.completed;
  retained_.push_back(std::move(*pending_));
  pending_.reset();
  const size_t keep =
      policy_.retain > 0 ? static_cast<size_t>(policy_.retain) : 1;
  if (retained_.size() > keep) {
    retained_.erase(retained_.begin(),
                    retained_.end() - static_cast<ptrdiff_t>(keep));
  }
  return retained_.front().begin_lsn;
}

const CheckpointImage* SelectRecoverable(
    const std::vector<CheckpointImage>& device, RecoveryStats* stats) {
  stats->checkpoints_available = device.size();
  for (auto it = device.rbegin(); it != device.rend(); ++it) {
    if (!it->complete) continue;
    uint64_t torn = 0;
    for (const CheckpointSliceImage& s : it->slices) {
      for (const CheckpointPage& p : s.pages) {
        if (p.Torn()) ++torn;
      }
    }
    if (torn == 0) return &*it;
    stats->torn_pages += torn;
    ++stats->checkpoints_discarded;
  }
  return nullptr;
}

void TearPage(CheckpointPage* page) {
  if (page->images.empty()) {
    // Degenerate page with no row data: corrupt the metadata instead.
    page->page_no ^= 0x5a5a5a5a;
    return;
  }
  // First half reached the device; the tail still holds stale bytes.
  const size_t keep = page->images.size() / 2;
  for (size_t i = keep; i < page->images.size(); ++i) {
    page->images[i] ^= 0xa5;
  }
}

}  // namespace imoltp::txn
