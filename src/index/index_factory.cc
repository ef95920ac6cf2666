#include "index/art.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/index.h"

namespace imoltp::index {

std::unique_ptr<Index> CreateIndex(IndexKind kind, uint32_t key_bytes) {
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

}  // namespace imoltp::index
