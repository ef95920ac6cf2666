#ifndef IMOLTP_INDEX_ART_H_
#define IMOLTP_INDEX_ART_H_

#include <cstdint>

#include "index/index.h"

namespace imoltp::index {

/// Adaptive Radix Tree (Leis et al., ICDE 2013) — HyPer's index. Four
/// adaptive node sizes (4/16/48/256 children), pessimistic path
/// compression (full prefixes stored inline), and single-value leaves as
/// tagged pointers. An ART probe touches a handful of small nodes whose
/// upper levels stay cache-resident, which is why the paper measures the
/// lowest LLC data stalls per transaction for HyPer (Section 4.2.3).
///
/// All keys inserted into one Art instance must have the same length
/// (fixed 8-byte encoded integers or fixed 50-byte strings here), which
/// makes the key set prefix-free as the structure requires.
class Art final : public Index {
 public:
  explicit Art(uint32_t key_bytes);
  ~Art() override;

  Art(const Art&) = delete;
  Art& operator=(const Art&) = delete;

  IndexKind kind() const override { return IndexKind::kArt; }
  Status Insert(mcsim::CoreSim* core, const Key& key,
                uint64_t value) override;
  bool Lookup(mcsim::CoreSim* core, const Key& key,
              uint64_t* value) override;
  bool Remove(mcsim::CoreSim* core, const Key& key) override;
  uint64_t Scan(mcsim::CoreSim* core, const Key& from, uint64_t limit,
                std::vector<uint64_t>* out) override;
  uint64_t size() const override { return size_; }
  bool ordered() const override { return true; }
  void ForEach(const std::function<void(const Key&, uint64_t)>& fn)
      const override;

 private:
  struct Leaf;
  struct Node;
  struct Node4;
  struct Node16;
  struct Node48;
  struct Node256;

  static bool IsLeaf(void* p) {
    return (reinterpret_cast<uintptr_t>(p) & 1) != 0;
  }
  static Leaf* AsLeaf(void* p) {
    return reinterpret_cast<Leaf*>(reinterpret_cast<uintptr_t>(p) & ~1ULL);
  }
  static void* TagLeaf(Leaf* l) {
    return reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(l) | 1);
  }

  Leaf* NewLeaf(const Key& key, uint64_t value);
  void FreeSubtree(void* node);

  void** FindChild(Node* node, uint8_t byte) const;
  void AddChild(Node** node_ref, Node* node, uint8_t byte, void* child);
  void RemoveChild(Node* node, uint8_t byte);
  bool InsertRec(mcsim::CoreSim* core, void** ref, const Key& key,
                 uint64_t value, uint32_t depth);
  bool RemoveRec(mcsim::CoreSim* core, void** ref, const Key& key,
                 uint32_t depth);
  uint64_t ScanRec(mcsim::CoreSim* core, void* node, const Key& from,
                   uint64_t limit, uint32_t depth, bool* past_from,
                   std::vector<uint64_t>* out) const;
  /// Calls `fn(byte, child)` on each child slot of `node` in byte order
  /// (a Node256 passes its empty slots as null).
  template <typename Fn>
  static void ForEachChild(Node* node, Fn&& fn);

  uint32_t key_bytes_;
  uint64_t size_ = 0;
  void* root_ = nullptr;
};

}  // namespace imoltp::index

#endif  // IMOLTP_INDEX_ART_H_
