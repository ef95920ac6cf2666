#include "index/btree.h"

#include <bit>
#include <cstdlib>
#include <cstring>

namespace imoltp::index {

// Node memory layout (node_bytes total, 64-byte aligned):
//   Node header (below), then `count` fixed-width entries of
//   (key_bytes key | 8-byte payload). In a leaf the payload is the value;
//   in an inner node it is the child covering keys >= that entry's key.
//   `leftmost` (inner only) covers keys below the first entry's key.
struct BTree::Node {
  uint16_t count;
  uint8_t is_leaf;
  uint8_t pad0;
  uint32_t pad1;
  Node* leftmost;   // inner: child for keys < entry[0].key
  Node* next_leaf;  // leaf chain
  // entries follow
};

namespace {

constexpr uint32_t kHeaderBytes = 32;

// Instruction cost of one key comparison: loop setup plus ~6
// instructions (load, compare, branch, advance) per 8-byte chunk
// actually examined. Long keys resolve in one chunk; 50-byte String
// keys retire several times more instructions per touched cache line —
// the spatial-locality effect of the paper's Section 6.2.
uint32_t CompareInstructions(uint32_t bytes_examined) {
  return 6 + 6 * ((bytes_examined + 7) / 8);
}

uint64_t LoadBigEndian64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// memcmp of `n` bytes in one pass over 8-byte chunks. Also reports the
// bytes the comparison examines before resolving: up to and including
// the first differing chunk, or all `n` when equal.
int CompareChunks(const uint8_t* a, const uint8_t* b, uint32_t n,
                  uint32_t* examined) {
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t x = LoadBigEndian64(a + i);
    const uint64_t y = LoadBigEndian64(b + i);
    if (x != y) {
      *examined = i + 8;
      return x < y ? -1 : 1;
    }
  }
  *examined = n;
  for (; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

}  // namespace

BTree::BTree(uint32_t node_bytes, uint32_t key_bytes, IndexKind kind)
    : kind_(kind), node_bytes_(node_bytes), key_bytes_(key_bytes) {
  const uint32_t entry = key_bytes_ + 8;
  leaf_capacity_ = (node_bytes_ - kHeaderBytes) / entry;
  inner_capacity_ = leaf_capacity_;
  root_ = NewNode(/*leaf=*/true);
}

BTree::~BTree() { FreeTree(root_); }

BTree::Node* BTree::NewNode(bool leaf) {
  void* mem = std::aligned_alloc(64, node_bytes_);
  std::memset(mem, 0, node_bytes_);
  Node* n = static_cast<Node*>(mem);
  n->is_leaf = leaf ? 1 : 0;
  return n;
}

void BTree::FreeTree(Node* node) {
  if (node == nullptr) return;
  if (!node->is_leaf) {
    FreeTree(node->leftmost);
    for (uint32_t i = 0; i < node->count; ++i) {
      Node* child;
      std::memcpy(&child,
                  reinterpret_cast<uint8_t*>(node) + kHeaderBytes +
                      i * (key_bytes_ + 8) + key_bytes_,
                  sizeof(child));
      FreeTree(child);
    }
  }
  std::free(node);
}

namespace {

inline uint8_t* EntryPtr(BTree::Node* node, uint32_t i, uint32_t entry) {
  return reinterpret_cast<uint8_t*>(node) + kHeaderBytes + i * entry;
}
inline const uint8_t* EntryPtr(const BTree::Node* node, uint32_t i,
                               uint32_t entry) {
  return reinterpret_cast<const uint8_t*>(node) + kHeaderBytes + i * entry;
}

}  // namespace

uint32_t BTree::LowerBound(mcsim::CoreSim* core, const Node* node,
                           const Key& key, bool* found) const {
  const uint32_t entry = key_bytes_ + 8;
  uint32_t lo = 0;
  uint32_t hi = node->count;
  *found = false;
  while (lo < hi) {
    const uint32_t mid = (lo + hi) / 2;
    const uint8_t* slot = EntryPtr(node, mid, entry);
    const uint32_t cmp_bytes =
        key_bytes_ < key.size() ? key_bytes_ : key.size();
    uint32_t examined;
    const int c = CompareChunks(slot, key.data(), cmp_bytes, &examined);
    core->Read(reinterpret_cast<uint64_t>(slot), examined);
    core->Retire(CompareInstructions(examined));
    if (c == 0 && key_bytes_ >= key.size()) {
      // Fixed-width slots are zero-padded; a shorter probe key matches
      // only if the slot's remainder is zero.
      bool equal = true;
      for (uint32_t b = key.size(); b < key_bytes_; ++b) {
        if (slot[b] != 0) {
          equal = false;
          break;
        }
      }
      if (equal) {
        *found = true;
        return mid;
      }
    }
    const int full = (c != 0) ? c
                              : (key_bytes_ < key.size() ? -1 : 1);
    if (full < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

BTree::Node* BTree::FindLeaf(mcsim::CoreSim* core, const Key& key) const {
  const uint32_t entry = key_bytes_ + 8;
  Node* node = root_;
  while (!node->is_leaf) {
    core->Read(reinterpret_cast<uint64_t>(node), kHeaderBytes);
    core->Retire(8);
    bool found;
    uint32_t pos = LowerBound(core, node, key, &found);
    // Child covering `key`: entry[pos-1].child, or leftmost if pos == 0.
    // On exact separator match descend right of the separator.
    if (found) pos += 1;
    Node* child;
    if (pos == 0) {
      child = node->leftmost;
    } else {
      std::memcpy(&child, EntryPtr(node, pos - 1, entry) + key_bytes_,
                  sizeof(child));
    }
    node = child;
  }
  core->Read(reinterpret_cast<uint64_t>(node), kHeaderBytes);
  core->Retire(8);
  return node;
}

bool BTree::Lookup(mcsim::CoreSim* core, const Key& key, uint64_t* value) {
  Node* leaf = FindLeaf(core, key);
  bool found;
  const uint32_t pos = LowerBound(core, leaf, key, &found);
  if (!found) return false;
  const uint8_t* slot = EntryPtr(leaf, pos, key_bytes_ + 8);
  core->Read(reinterpret_cast<uint64_t>(slot + key_bytes_), 8);
  core->Retire(4);
  std::memcpy(value, slot + key_bytes_, 8);
  return true;
}

bool BTree::InsertRec(mcsim::CoreSim* core, Node* node, const Key& key,
                      uint64_t value, SplitResult* split, bool* duplicate) {
  const uint32_t entry = key_bytes_ + 8;
  core->Read(reinterpret_cast<uint64_t>(node), kHeaderBytes);
  core->Retire(8);
  bool found;
  uint32_t pos = LowerBound(core, node, key, &found);

  if (node->is_leaf) {
    if (found) {
      *duplicate = true;
      return false;
    }
    // Shift entries right and place the new one.
    uint8_t* base = EntryPtr(node, 0, entry);
    std::memmove(base + (pos + 1) * entry, base + pos * entry,
                 (node->count - pos) * entry);
    uint8_t* slot = base + pos * entry;
    std::memset(slot, 0, key_bytes_);
    std::memcpy(slot, key.data(),
                key.size() < key_bytes_ ? key.size() : key_bytes_);
    std::memcpy(slot + key_bytes_, &value, 8);
    ++node->count;
    core->Write(reinterpret_cast<uint64_t>(slot), entry);
    core->Write(reinterpret_cast<uint64_t>(node), 8);
    core->Retire(12);
    if (node->count < leaf_capacity_) return false;

    // Split the leaf: upper half moves to a new leaf.
    Node* right = NewNode(/*leaf=*/true);
    const uint32_t keep = node->count / 2;
    right->count = node->count - keep;
    std::memcpy(EntryPtr(right, 0, entry), EntryPtr(node, keep, entry),
                right->count * entry);
    node->count = static_cast<uint16_t>(keep);
    right->next_leaf = node->next_leaf;
    node->next_leaf = right;
    split->new_node = right;
    split->separator = Key::FromBytes(EntryPtr(right, 0, entry),
                                      key_bytes_);
    core->Write(reinterpret_cast<uint64_t>(right), node_bytes_ / 2);
    core->Retire(40);
    return true;
  }

  // Inner node: descend.
  if (found) pos += 1;
  Node* child;
  if (pos == 0) {
    child = node->leftmost;
  } else {
    std::memcpy(&child, EntryPtr(node, pos - 1, entry) + key_bytes_,
                sizeof(child));
  }
  SplitResult child_split;
  if (!InsertRec(core, child, key, value, &child_split, duplicate)) {
    return false;
  }

  // Insert (separator, new child) at `pos`.
  uint8_t* base = EntryPtr(node, 0, entry);
  std::memmove(base + (pos + 1) * entry, base + pos * entry,
               (node->count - pos) * entry);
  uint8_t* slot = base + pos * entry;
  std::memset(slot, 0, key_bytes_);
  std::memcpy(slot, child_split.separator.data(),
              child_split.separator.size() < key_bytes_
                  ? child_split.separator.size()
                  : key_bytes_);
  std::memcpy(slot + key_bytes_, &child_split.new_node, 8);
  ++node->count;
  core->Write(reinterpret_cast<uint64_t>(slot), entry);
  core->Retire(12);
  if (node->count < inner_capacity_) return false;

  // Split the inner node: middle key moves up.
  Node* right = NewNode(/*leaf=*/false);
  const uint32_t mid = node->count / 2;
  split->separator = Key::FromBytes(EntryPtr(node, mid, entry), key_bytes_);
  Node* mid_child;
  std::memcpy(&mid_child, EntryPtr(node, mid, entry) + key_bytes_,
              sizeof(mid_child));
  right->leftmost = mid_child;
  right->count = static_cast<uint16_t>(node->count - mid - 1);
  std::memcpy(EntryPtr(right, 0, entry), EntryPtr(node, mid + 1, entry),
              right->count * entry);
  node->count = static_cast<uint16_t>(mid);
  split->new_node = right;
  core->Write(reinterpret_cast<uint64_t>(right), node_bytes_ / 2);
  core->Retire(40);
  return true;
}

Status BTree::Insert(mcsim::CoreSim* core, const Key& key, uint64_t value) {
  SplitResult split;
  bool duplicate = false;
  if (InsertRec(core, root_, key, value, &split, &duplicate)) {
    // Grow a new root.
    Node* new_root = NewNode(/*leaf=*/false);
    new_root->leftmost = root_;
    new_root->count = 1;
    const uint32_t entry = key_bytes_ + 8;
    uint8_t* slot = EntryPtr(new_root, 0, entry);
    std::memset(slot, 0, key_bytes_);
    std::memcpy(slot, split.separator.data(),
                split.separator.size() < key_bytes_ ? split.separator.size()
                                                    : key_bytes_);
    std::memcpy(slot + key_bytes_, &split.new_node, 8);
    root_ = new_root;
    ++height_;
    core->Write(reinterpret_cast<uint64_t>(new_root), kHeaderBytes + entry);
  }
  if (duplicate) return Status::AlreadyExists();
  ++size_;
  MarkDirty();
  return Status::Ok();
}

bool BTree::Remove(mcsim::CoreSim* core, const Key& key) {
  Node* leaf = FindLeaf(core, key);
  bool found;
  const uint32_t pos = LowerBound(core, leaf, key, &found);
  if (!found) return false;
  const uint32_t entry = key_bytes_ + 8;
  uint8_t* base = EntryPtr(leaf, 0, entry);
  std::memmove(base + pos * entry, base + (pos + 1) * entry,
               (leaf->count - pos - 1) * entry);
  --leaf->count;
  core->Write(reinterpret_cast<uint64_t>(base + pos * entry), entry);
  core->Write(reinterpret_cast<uint64_t>(leaf), 8);
  core->Retire(12);
  --size_;
  MarkDirty();
  return true;
}

uint64_t BTree::Scan(mcsim::CoreSim* core, const Key& from, uint64_t limit,
                     std::vector<uint64_t>* out) {
  Node* leaf = FindLeaf(core, from);
  bool found;
  uint32_t pos = LowerBound(core, leaf, from, &found);
  const uint32_t entry = key_bytes_ + 8;
  uint64_t n = 0;
  while (leaf != nullptr && n < limit) {
    if (pos >= leaf->count) {
      leaf = leaf->next_leaf;
      pos = 0;
      if (leaf != nullptr) {
        core->Read(reinterpret_cast<uint64_t>(leaf), kHeaderBytes);
        core->Retire(6);
      }
      continue;
    }
    const uint8_t* slot = EntryPtr(leaf, pos, entry);
    core->Read(reinterpret_cast<uint64_t>(slot), entry);
    core->Retire(8);
    uint64_t value;
    std::memcpy(&value, slot + key_bytes_, 8);
    out->push_back(value);
    ++n;
    ++pos;
  }
  return n;
}

void BTree::ForEach(
    const std::function<void(const Key&, uint64_t)>& fn) const {
  const Node* leaf = root_;
  while (!leaf->is_leaf) leaf = leaf->leftmost;
  const uint32_t entry = key_bytes_ + 8;
  for (; leaf != nullptr; leaf = leaf->next_leaf) {
    for (uint32_t i = 0; i < leaf->count; ++i) {
      const uint8_t* slot = EntryPtr(leaf, i, entry);
      uint64_t value;
      std::memcpy(&value, slot + key_bytes_, 8);
      fn(Key::FromBytes(slot, key_bytes_), value);
    }
  }
}

}  // namespace imoltp::index
