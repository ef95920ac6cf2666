#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "index/art.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/index.h"

namespace imoltp::index {

namespace {

/// Reader/writer locking decorator. The underlying structures (B-tree
/// splits, ART node growth, hash rehash) move memory around on insert, so
/// free-running parallel workers must not probe mid-restructure. Lookups
/// and scans share the lock; mutations are exclusive. Both are taken
/// only while the calling core free-runs (mcsim::HostLock): in serial
/// execution one host thread runs every core. size() and ForEach(),
/// which take no core, always lock. The simulated cost model is
/// unchanged — the traced node walks happen inside the lock on the
/// caller's own core. The decorator also keeps the dirty bit: a
/// successful mutation sets it, MarkClean() clears it.
class LockedIndex final : public Index {
 public:
  explicit LockedIndex(std::unique_ptr<Index> inner)
      : inner_(std::move(inner)) {}

  IndexKind kind() const override { return inner_->kind(); }

  Status Insert(mcsim::CoreSim* core, const Key& key,
                uint64_t value) override {
    auto lock = mcsim::HostLock<std::unique_lock>(core, mu_);
    const Status s = inner_->Insert(core, key, value);
    if (s.ok()) dirty_.store(true, std::memory_order_relaxed);
    return s;
  }

  bool Lookup(mcsim::CoreSim* core, const Key& key,
              uint64_t* value) override {
    auto lock = mcsim::HostLock<std::shared_lock>(core, mu_);
    return inner_->Lookup(core, key, value);
  }

  bool Remove(mcsim::CoreSim* core, const Key& key) override {
    auto lock = mcsim::HostLock<std::unique_lock>(core, mu_);
    const bool removed = inner_->Remove(core, key);
    if (removed) dirty_.store(true, std::memory_order_relaxed);
    return removed;
  }

  uint64_t Scan(mcsim::CoreSim* core, const Key& from, uint64_t limit,
                std::vector<uint64_t>* out) override {
    auto lock = mcsim::HostLock<std::shared_lock>(core, mu_);
    return inner_->Scan(core, from, limit, out);
  }

  uint64_t size() const override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return inner_->size();
  }

  bool ordered() const override { return inner_->ordered(); }

  void ForEach(const std::function<void(const Key&, uint64_t)>& fn)
      const override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    inner_->ForEach(fn);
  }

  bool dirty() const override { return dirty_; }
  void MarkClean() override { dirty_ = false; }

 private:
  mutable std::shared_mutex mu_;
  std::unique_ptr<Index> inner_;
  std::atomic<bool> dirty_{true};
};

std::unique_ptr<Index> CreateBareIndex(IndexKind kind,
                                       uint32_t key_bytes) {
  switch (kind) {
    case IndexKind::kBTree8K:
      return std::make_unique<BTree>(8192, key_bytes, kind);
    case IndexKind::kBTreeCacheline:
      return std::make_unique<BTree>(512, key_bytes, kind);
    case IndexKind::kBTreeCc:
      // Bw-tree / solidDB style: cache-conscious layout with KB-sized
      // logical pages (paper refs [17], [18]).
      return std::make_unique<BTree>(2048, key_bytes, kind);
    case IndexKind::kArt:
      return std::make_unique<Art>(key_bytes);
    case IndexKind::kHash:
      return std::make_unique<HashIndex>(key_bytes);
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Index> CreateIndex(IndexKind kind, uint32_t key_bytes) {
  auto inner = CreateBareIndex(kind, key_bytes);
  if (inner == nullptr) return nullptr;
  return std::make_unique<LockedIndex>(std::move(inner));
}

}  // namespace imoltp::index
