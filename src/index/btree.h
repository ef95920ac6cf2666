#ifndef IMOLTP_INDEX_BTREE_H_
#define IMOLTP_INDEX_BTREE_H_

#include <cstdint>
#include <memory>

#include "index/index.h"

namespace imoltp::index {

/// A B+-tree with a runtime-configurable node size, covering three of
/// the paper's index archetypes with one implementation:
///
///   - 8KB nodes  : the disk-optimized B-tree of Shore-MT and DBMS D.
///     Probing one key binary-searches a large node, touching many
///     scattered cache lines per level — the paper blames exactly this
///     for Shore-MT's high LLC data stalls (Section 4.1.3).
///   - 512B nodes : VoltDB's tree "with node size tuned to the last-level
///     cache line size".
///   - 256B nodes : DBMS M's cache-conscious B-tree variant.
///
/// Leaves are chained for range scans. Deletion removes leaf entries
/// without merging under-full nodes (the common practice in real OLTP
/// engines; structure stays correct, space is reused by later inserts).
class BTree final : public Index {
 public:
  BTree(uint32_t node_bytes, uint32_t key_bytes, IndexKind kind);
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  IndexKind kind() const override { return kind_; }
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

  /// Height of the tree (levels). Exposed for tests/benches.
  uint32_t height() const { return height_; }
  uint32_t node_bytes() const { return node_bytes_; }
  uint32_t leaf_capacity() const { return leaf_capacity_; }

  struct Node;  // layout detail, defined in btree.cc

 private:

  struct SplitResult {
    Node* new_node = nullptr;
    Key separator;
  };

  Node* NewNode(bool leaf);
  void FreeTree(Node* node);
  // Returns entry index via binary search; traced through `core`.
  uint32_t LowerBound(mcsim::CoreSim* core, const Node* node,
                      const Key& key, bool* found) const;
  bool InsertRec(mcsim::CoreSim* core, Node* node, const Key& key,
                 uint64_t value, SplitResult* split, bool* duplicate);
  Node* FindLeaf(mcsim::CoreSim* core, const Key& key) const;

  IndexKind kind_;
  uint32_t node_bytes_;
  uint32_t key_bytes_;
  uint32_t leaf_capacity_;
  uint32_t inner_capacity_;
  uint32_t height_ = 1;
  uint64_t size_ = 0;
  Node* root_;
};

}  // namespace imoltp::index

#endif  // IMOLTP_INDEX_BTREE_H_
