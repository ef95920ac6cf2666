#ifndef IMOLTP_INDEX_HASH_INDEX_H_
#define IMOLTP_INDEX_HASH_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "index/index.h"

namespace imoltp::index {

/// Chained hash index — DBMS M's primary structure for point workloads.
/// A probe hashes straight to one bucket and walks a (normally
/// single-entry) chain: one or two random lines per lookup, versus a full
/// root-to-leaf traversal for the B-trees. The paper measures 2–4x lower
/// LLC data stalls for this index than for the B-tree (Section 6.1).
///
/// The directory doubles when load factor exceeds 1; entries are
/// allocated from a segmented pool so their addresses are stable.
class HashIndex final : public Index {
 public:
  explicit HashIndex(uint32_t key_bytes, uint64_t initial_buckets = 1024);
  ~HashIndex() override = default;

  HashIndex(const HashIndex&) = delete;
  HashIndex& operator=(const HashIndex&) = delete;

  IndexKind kind() const override { return IndexKind::kHash; }
  Status Insert(mcsim::CoreSim* core, const Key& key,
                uint64_t value) override;
  bool Lookup(mcsim::CoreSim* core, const Key& key,
              uint64_t* value) override;
  bool Remove(mcsim::CoreSim* core, const Key& key) override;
  uint64_t Scan(mcsim::CoreSim* core, const Key& from, uint64_t limit,
                std::vector<uint64_t>* out) override;
  uint64_t size() const override { return size_; }
  bool ordered() const override { return false; }
  void ForEach(const std::function<void(const Key&, uint64_t)>& fn)
      const override;

  uint64_t num_buckets() const { return buckets_.size(); }

 private:
  struct Entry {
    Entry* next;
    uint64_t value;
    uint32_t key_len;
    // Key bytes follow inline; entries are allocated at exactly
    // offsetof(Entry, key) + key_len bytes.
    uint8_t key[1];
  };

  Entry* AllocEntry();
  void MaybeGrow();

  uint32_t key_bytes_;
  uint32_t entry_bytes_;
  uint64_t size_ = 0;
  std::vector<Entry*> buckets_;
  std::vector<std::unique_ptr<uint8_t[]>> pool_;
  uint32_t pool_used_ = 0;
  Entry* free_list_ = nullptr;
};

}  // namespace imoltp::index

#endif  // IMOLTP_INDEX_HASH_INDEX_H_
