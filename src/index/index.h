#ifndef IMOLTP_INDEX_INDEX_H_
#define IMOLTP_INDEX_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/key.h"
#include "mcsim/core.h"

namespace imoltp::index {

/// Kinds of index structures the analyzed systems use (paper Section 3,
/// "Analyzed Systems", and Section 6.1).
enum class IndexKind {
  kBTree8K,       // Shore-MT / DBMS D: disk-optimized B-tree, 8KB nodes
  kBTreeCacheline,  // VoltDB: node size tuned to cache lines
  kBTreeCc,       // DBMS M: cache-conscious B-tree variant
  kArt,           // HyPer: adaptive radix tree
  kHash,          // DBMS M: hash index
};

inline const char* IndexKindName(IndexKind k) {
  switch (k) {
    case IndexKind::kBTree8K: return "btree-8k";
    case IndexKind::kBTreeCacheline: return "btree-cacheline";
    case IndexKind::kBTreeCc: return "btree-cc";
    case IndexKind::kArt: return "art";
    case IndexKind::kHash: return "hash";
  }
  return "?";
}

/// Unique-key index mapping Key → 64-bit value (a RowId). All methods
/// trace their node/bucket memory through the worker's CoreSim and retire
/// the instructions of their comparisons, so index choice shows up in the
/// simulated data-stall profile exactly as in the paper's Section 6.1.
class Index {
 public:
  virtual ~Index() = default;

  virtual IndexKind kind() const = 0;

  /// Inserts key → value. kAlreadyExists if the key is present.
  virtual Status Insert(mcsim::CoreSim* core, const Key& key,
                        uint64_t value) = 0;

  /// Point lookup; returns true and sets *value if found.
  virtual bool Lookup(mcsim::CoreSim* core, const Key& key,
                      uint64_t* value) = 0;

  /// Removes a key; returns true if it was present.
  virtual bool Remove(mcsim::CoreSim* core, const Key& key) = 0;

  /// Ordered scan: appends up to `limit` values for keys >= `from`, in
  /// key order. Unordered indexes return 0 (hash). Returns the count.
  virtual uint64_t Scan(mcsim::CoreSim* core, const Key& from,
                        uint64_t limit, std::vector<uint64_t>* out) = 0;

  virtual uint64_t size() const = 0;

  /// True for ordered (range-capable) structures.
  virtual bool ordered() const = 0;

  /// Host-only walk over every live (key, value) pair, in key order for
  /// ordered structures: no simulated instruction or cache access.
  virtual void ForEach(
      const std::function<void(const Key&, uint64_t)>& fn) const = 0;

  /// Set by a successful Insert/Remove, cleared by MarkClean(). A new
  /// index is dirty.
  bool dirty() const { return dirty_; }
  void MarkClean() { dirty_ = false; }

 protected:
  /// Every implementation calls this after a successful Insert/Remove.
  void MarkDirty() { dirty_ = true; }

 private:
  bool dirty_ = true;
};

/// Factory. `key_bytes` fixes the stored key slot width for the B-tree
/// variants (8 for Long / composite keys, 50 for the String experiment).
std::unique_ptr<Index> CreateIndex(IndexKind kind, uint32_t key_bytes);

}  // namespace imoltp::index

#endif  // IMOLTP_INDEX_INDEX_H_
