#include "index/art.h"

#include <cstddef>
#include <cstdlib>
#include <cstring>

namespace imoltp::index {

namespace {
constexpr uint32_t kMaxPrefix = 52;  // >= longest key; fully pessimistic

enum NodeType : uint8_t { kNode4, kNode16, kNode48, kNode256 };
}  // namespace

struct Art::Leaf {
  uint32_t key_len;
  uint64_t value;
  // Key bytes follow inline; leaves are allocated at exactly
  // offsetof(Leaf, key) + key_len bytes (they dominate index memory).
  uint8_t key[1];
};

struct Art::Node {
  uint8_t type;
  uint16_t num_children;
  uint32_t prefix_len;
  uint8_t prefix[kMaxPrefix];
};

struct Art::Node4 {
  Node base;
  uint8_t keys[4];
  void* children[4];
};
struct Art::Node16 {
  Node base;
  uint8_t keys[16];
  void* children[16];
};
struct Art::Node48 {
  Node base;
  uint8_t child_index[256];  // 0 = empty, else slot+1
  void* children[48];
};
struct Art::Node256 {
  Node base;
  void* children[256];
};

namespace {

template <typename T>
T* AllocNode(NodeType type) {
  T* n = static_cast<T*>(std::calloc(1, sizeof(T)));
  n->base.type = type;
  return n;
}

}  // namespace

Art::Art(uint32_t key_bytes) : key_bytes_(key_bytes) {}

Art::~Art() { FreeSubtree(root_); }

template <typename Fn>
void Art::ForEachChild(Node* n, Fn&& fn) {
  switch (n->type) {
    case kNode4: {
      auto* n4 = reinterpret_cast<Node4*>(n);
      for (int i = 0; i < n->num_children; ++i)
        fn(n4->keys[i], n4->children[i]);
      break;
    }
    case kNode16: {
      auto* n16 = reinterpret_cast<Node16*>(n);
      for (int i = 0; i < n->num_children; ++i)
        fn(n16->keys[i], n16->children[i]);
      break;
    }
    case kNode48: {
      auto* n48 = reinterpret_cast<Node48*>(n);
      for (int b = 0; b < 256; ++b) {
        if (n48->child_index[b] != 0)
          fn(static_cast<uint8_t>(b), n48->children[n48->child_index[b] - 1]);
      }
      break;
    }
    default: {
      auto* n256 = reinterpret_cast<Node256*>(n);
      for (int b = 0; b < 256; ++b)
        fn(static_cast<uint8_t>(b), n256->children[b]);
      break;
    }
  }
}

void Art::FreeSubtree(void* p) {
  if (p == nullptr) return;
  if (IsLeaf(p)) {
    std::free(AsLeaf(p));
    return;
  }
  Node* n = static_cast<Node*>(p);
  ForEachChild(n, [this](uint8_t, void* child) { FreeSubtree(child); });
  std::free(n);
}

void Art::ForEach(
    const std::function<void(const Key&, uint64_t)>& fn) const {
  auto walk = [&fn](auto& self, void* p) -> void {
    if (p == nullptr) return;
    if (IsLeaf(p)) {
      const Leaf* l = AsLeaf(p);
      fn(Key::FromBytes(l->key, l->key_len), l->value);
      return;
    }
    ForEachChild(static_cast<Node*>(p),
                 [&](uint8_t, void* child) { self(self, child); });
  };
  walk(walk, root_);
}

Art::Leaf* Art::NewLeaf(const Key& key, uint64_t value) {
  Leaf* l = static_cast<Leaf*>(
      std::calloc(1, offsetof(Leaf, key) + key.size()));
  l->key_len = key.size();
  l->value = value;
  std::memcpy(l->key, key.data(), key.size());
  return l;
}

void** Art::FindChild(Node* node, uint8_t byte) const {
  switch (node->type) {
    case kNode4: {
      auto* n = reinterpret_cast<Node4*>(node);
      for (int i = 0; i < node->num_children; ++i) {
        if (n->keys[i] == byte) return &n->children[i];
      }
      return nullptr;
    }
    case kNode16: {
      auto* n = reinterpret_cast<Node16*>(node);
      for (int i = 0; i < node->num_children; ++i) {
        if (n->keys[i] == byte) return &n->children[i];
      }
      return nullptr;
    }
    case kNode48: {
      auto* n = reinterpret_cast<Node48*>(node);
      if (n->child_index[byte] == 0) return nullptr;
      return &n->children[n->child_index[byte] - 1];
    }
    default: {
      auto* n = reinterpret_cast<Node256*>(node);
      return n->children[byte] != nullptr ? &n->children[byte] : nullptr;
    }
  }
}

void Art::AddChild(Node** node_ref, Node* node, uint8_t byte, void* child) {
  switch (node->type) {
    case kNode4: {
      auto* n = reinterpret_cast<Node4*>(node);
      if (node->num_children < 4) {
        int pos = 0;
        while (pos < node->num_children && n->keys[pos] < byte) ++pos;
        std::memmove(n->keys + pos + 1, n->keys + pos,
                     node->num_children - pos);
        std::memmove(n->children + pos + 1, n->children + pos,
                     (node->num_children - pos) * sizeof(void*));
        n->keys[pos] = byte;
        n->children[pos] = child;
        ++node->num_children;
        return;
      }
      // Grow to Node16.
      auto* bigger = AllocNode<Node16>(kNode16);
      bigger->base.num_children = node->num_children;
      bigger->base.prefix_len = node->prefix_len;
      std::memcpy(bigger->base.prefix, node->prefix, kMaxPrefix);
      std::memcpy(bigger->keys, n->keys, 4);
      std::memcpy(bigger->children, n->children, 4 * sizeof(void*));
      std::free(node);
      *node_ref = &bigger->base;
      AddChild(node_ref, &bigger->base, byte, child);
      return;
    }
    case kNode16: {
      auto* n = reinterpret_cast<Node16*>(node);
      if (node->num_children < 16) {
        int pos = 0;
        while (pos < node->num_children && n->keys[pos] < byte) ++pos;
        std::memmove(n->keys + pos + 1, n->keys + pos,
                     node->num_children - pos);
        std::memmove(n->children + pos + 1, n->children + pos,
                     (node->num_children - pos) * sizeof(void*));
        n->keys[pos] = byte;
        n->children[pos] = child;
        ++node->num_children;
        return;
      }
      auto* bigger = AllocNode<Node48>(kNode48);
      bigger->base.num_children = node->num_children;
      bigger->base.prefix_len = node->prefix_len;
      std::memcpy(bigger->base.prefix, node->prefix, kMaxPrefix);
      for (int i = 0; i < 16; ++i) {
        bigger->children[i] = n->children[i];
        bigger->child_index[n->keys[i]] = static_cast<uint8_t>(i + 1);
      }
      std::free(node);
      *node_ref = &bigger->base;
      AddChild(node_ref, &bigger->base, byte, child);
      return;
    }
    case kNode48: {
      auto* n = reinterpret_cast<Node48*>(node);
      if (node->num_children < 48) {
        // Removals leave holes in children[]; find a free slot rather
        // than assuming slots [0, num_children) are the occupied ones.
        int slot = 0;
        while (n->children[slot] != nullptr) ++slot;
        n->children[slot] = child;
        n->child_index[byte] = static_cast<uint8_t>(slot + 1);
        ++node->num_children;
        return;
      }
      auto* bigger = AllocNode<Node256>(kNode256);
      bigger->base.num_children = node->num_children;
      bigger->base.prefix_len = node->prefix_len;
      std::memcpy(bigger->base.prefix, node->prefix, kMaxPrefix);
      for (int b = 0; b < 256; ++b) {
        if (n->child_index[b] != 0) {
          bigger->children[b] = n->children[n->child_index[b] - 1];
        }
      }
      std::free(node);
      *node_ref = &bigger->base;
      AddChild(node_ref, &bigger->base, byte, child);
      return;
    }
    default: {
      auto* n = reinterpret_cast<Node256*>(node);
      n->children[byte] = child;
      ++node->num_children;
      return;
    }
  }
}

void Art::RemoveChild(Node* node, uint8_t byte) {
  switch (node->type) {
    case kNode4: {
      auto* n = reinterpret_cast<Node4*>(node);
      for (int i = 0; i < node->num_children; ++i) {
        if (n->keys[i] == byte) {
          std::memmove(n->keys + i, n->keys + i + 1,
                       node->num_children - i - 1);
          std::memmove(n->children + i, n->children + i + 1,
                       (node->num_children - i - 1) * sizeof(void*));
          --node->num_children;
          return;
        }
      }
      return;
    }
    case kNode16: {
      auto* n = reinterpret_cast<Node16*>(node);
      for (int i = 0; i < node->num_children; ++i) {
        if (n->keys[i] == byte) {
          std::memmove(n->keys + i, n->keys + i + 1,
                       node->num_children - i - 1);
          std::memmove(n->children + i, n->children + i + 1,
                       (node->num_children - i - 1) * sizeof(void*));
          --node->num_children;
          return;
        }
      }
      return;
    }
    case kNode48: {
      auto* n = reinterpret_cast<Node48*>(node);
      if (n->child_index[byte] != 0) {
        // Leave a hole in children[]; slots are not compacted (holes are
        // reused only via growth, which is fine for OLTP delete rates).
        n->children[n->child_index[byte] - 1] = nullptr;
        n->child_index[byte] = 0;
        --node->num_children;
      }
      return;
    }
    default: {
      auto* n = reinterpret_cast<Node256*>(node);
      if (n->children[byte] != nullptr) {
        n->children[byte] = nullptr;
        --node->num_children;
      }
      return;
    }
  }
}

bool Art::Lookup(mcsim::CoreSim* core, const Key& key, uint64_t* value) {
  void* p = root_;
  uint32_t depth = 0;
  while (p != nullptr) {
    if (IsLeaf(p)) {
      Leaf* l = AsLeaf(p);
      core->Read(reinterpret_cast<uint64_t>(l), 16 + l->key_len);
      core->Retire(6 + 6 * ((l->key_len + 7) / 8));
      if (l->key_len == key.size() &&
          std::memcmp(l->key, key.data(), key.size()) == 0) {
        *value = l->value;
        return true;
      }
      return false;
    }
    Node* n = static_cast<Node*>(p);
    core->Read(reinterpret_cast<uint64_t>(n),
               sizeof(Node) < 24 ? sizeof(Node) : 24);
    core->Retire(8);
    if (n->prefix_len > 0) {
      if (depth + n->prefix_len > key.size() ||
          std::memcmp(n->prefix, key.data() + depth, n->prefix_len) != 0) {
        return false;
      }
      core->Retire(2 + n->prefix_len / 8);
      depth += n->prefix_len;
    }
    if (depth >= key.size()) return false;
    void** child = FindChild(n, key.data()[depth]);
    // Child array probe: one line of the child pointer area.
    core->Read(reinterpret_cast<uint64_t>(n) + sizeof(Node), 16);
    core->Retire(4);
    if (child == nullptr) return false;
    p = *child;
    ++depth;
  }
  return false;
}

bool Art::InsertRec(mcsim::CoreSim* core, void** ref, const Key& key,
                    uint64_t value, uint32_t depth) {
  if (*ref == nullptr) {
    *ref = TagLeaf(NewLeaf(key, value));
    core->Write(reinterpret_cast<uint64_t>(AsLeaf(*ref)), 16 + key.size());
    core->Retire(12);
    return true;
  }
  if (IsLeaf(*ref)) {
    Leaf* l = AsLeaf(*ref);
    core->Read(reinterpret_cast<uint64_t>(l), 16 + l->key_len);
    core->Retire(6 + 6 * ((l->key_len + 7) / 8));
    if (l->key_len == key.size() &&
        std::memcmp(l->key, key.data(), key.size()) == 0) {
      return false;  // duplicate
    }
    // Split: new Node4 with the common prefix of the two keys.
    uint32_t common = 0;
    const uint32_t max_common = (l->key_len < key.size() ? l->key_len
                                                         : key.size()) -
                                depth;
    while (common < max_common &&
           l->key[depth + common] == key.data()[depth + common]) {
      ++common;
    }
    auto* n4 = AllocNode<Node4>(kNode4);
    n4->base.prefix_len = common;
    std::memcpy(n4->base.prefix, key.data() + depth, common);
    Leaf* new_leaf = NewLeaf(key, value);
    Node* as_node = &n4->base;
    void* old_ref = *ref;
    *ref = as_node;
    AddChild(reinterpret_cast<Node**>(ref), as_node,
             l->key[depth + common], old_ref);
    AddChild(reinterpret_cast<Node**>(ref),
             static_cast<Node*>(*ref), key.data()[depth + common],
             TagLeaf(new_leaf));
    core->Write(reinterpret_cast<uint64_t>(n4), sizeof(Node4));
    core->Retire(30);
    return true;
  }

  Node* n = static_cast<Node*>(*ref);
  core->Read(reinterpret_cast<uint64_t>(n), 24);
  core->Retire(8);
  if (n->prefix_len > 0) {
    uint32_t match = 0;
    while (match < n->prefix_len &&
           depth + match < key.size() &&
           n->prefix[match] == key.data()[depth + match]) {
      ++match;
    }
    core->Retire(2 + match / 8);
    if (match < n->prefix_len) {
      // Prefix mismatch: split the prefix with a new Node4 above.
      auto* n4 = AllocNode<Node4>(kNode4);
      n4->base.prefix_len = match;
      std::memcpy(n4->base.prefix, n->prefix, match);
      const uint8_t old_byte = n->prefix[match];
      // Shorten the old node's prefix past the split point.
      n->prefix_len -= match + 1;
      std::memmove(n->prefix, n->prefix + match + 1, n->prefix_len);
      Leaf* new_leaf = NewLeaf(key, value);
      void* node_ref = &n4->base;
      *ref = node_ref;
      AddChild(reinterpret_cast<Node**>(ref), &n4->base, old_byte, n);
      AddChild(reinterpret_cast<Node**>(ref), static_cast<Node*>(*ref),
               key.data()[depth + match], TagLeaf(new_leaf));
      core->Write(reinterpret_cast<uint64_t>(n4), sizeof(Node4));
      core->Retire(30);
      return true;
    }
    depth += n->prefix_len;
  }
  const uint8_t byte = key.data()[depth];
  void** child = FindChild(n, byte);
  core->Read(reinterpret_cast<uint64_t>(n) + sizeof(Node), 16);
  core->Retire(4);
  if (child != nullptr) {
    return InsertRec(core, child, key, value, depth + 1);
  }
  Leaf* new_leaf = NewLeaf(key, value);
  AddChild(reinterpret_cast<Node**>(ref), n, byte, TagLeaf(new_leaf));
  core->Write(reinterpret_cast<uint64_t>(*ref), 32);
  core->Retire(14);
  return true;
}

Status Art::Insert(mcsim::CoreSim* core, const Key& key, uint64_t value) {
  if (!InsertRec(core, &root_, key, value, 0)) {
    return Status::AlreadyExists();
  }
  ++size_;
  MarkDirty();
  return Status::Ok();
}

bool Art::RemoveRec(mcsim::CoreSim* core, void** ref, const Key& key,
                    uint32_t depth) {
  if (*ref == nullptr) return false;
  if (IsLeaf(*ref)) {
    Leaf* l = AsLeaf(*ref);
    core->Read(reinterpret_cast<uint64_t>(l), 16 + l->key_len);
    core->Retire(6);
    if (l->key_len == key.size() &&
        std::memcmp(l->key, key.data(), key.size()) == 0) {
      std::free(l);
      *ref = nullptr;
      return true;
    }
    return false;
  }
  Node* n = static_cast<Node*>(*ref);
  core->Read(reinterpret_cast<uint64_t>(n), 24);
  core->Retire(8);
  if (n->prefix_len > 0) {
    if (depth + n->prefix_len > key.size() ||
        std::memcmp(n->prefix, key.data() + depth, n->prefix_len) != 0) {
      return false;
    }
    depth += n->prefix_len;
  }
  if (depth >= key.size()) return false;
  const uint8_t byte = key.data()[depth];
  void** child = FindChild(n, byte);
  if (child == nullptr) return false;
  if (IsLeaf(*child)) {
    Leaf* l = AsLeaf(*child);
    core->Read(reinterpret_cast<uint64_t>(l), 16 + l->key_len);
    core->Retire(6);
    if (l->key_len != key.size() ||
        std::memcmp(l->key, key.data(), key.size()) != 0) {
      return false;
    }
    std::free(l);
    RemoveChild(n, byte);
    core->Write(reinterpret_cast<uint64_t>(n), 32);
    core->Retire(10);
    return true;
  }
  return RemoveRec(core, child, key, depth + 1);
}

bool Art::Remove(mcsim::CoreSim* core, const Key& key) {
  if (!RemoveRec(core, &root_, key, 0)) return false;
  --size_;
  MarkDirty();
  return true;
}

uint64_t Art::ScanRec(mcsim::CoreSim* core, void* p, const Key& from,
                      uint64_t limit, uint32_t depth, bool* past_from,
                      std::vector<uint64_t>* out) const {
  if (p == nullptr || out->size() >= limit) return 0;
  if (IsLeaf(p)) {
    Leaf* l = AsLeaf(p);
    core->Read(reinterpret_cast<uint64_t>(l), 16 + l->key_len);
    core->Retire(6 + 6 * ((l->key_len + 7) / 8));
    if (!*past_from) {
      const Key leaf_key = Key::FromBytes(l->key, l->key_len);
      if (leaf_key.Compare(from) < 0) return 0;
      *past_from = true;
    }
    out->push_back(l->value);
    return 1;
  }
  Node* n = static_cast<Node*>(p);
  core->Read(reinterpret_cast<uint64_t>(n), 24);
  core->Retire(8);

  if (!*past_from && n->prefix_len > 0) {
    // Compare the compressed prefix against the corresponding bytes of
    // `from` to prune subtrees that are entirely below the start key.
    const uint32_t remaining =
        depth < from.size() ? from.size() - depth : 0;
    const uint32_t cmp_len =
        n->prefix_len < remaining ? n->prefix_len : remaining;
    const int c = std::memcmp(n->prefix, from.data() + depth, cmp_len);
    core->Retire(2 + cmp_len / 8);
    if (c < 0) return 0;            // whole subtree < from
    if (c > 0) *past_from = true;   // whole subtree > from
  }
  depth += n->prefix_len;
  if (!*past_from && depth >= from.size()) *past_from = true;

  uint64_t added = 0;
  auto visit = [&](uint8_t byte, void* child) {
    if (child == nullptr || out->size() >= limit) return;
    if (!*past_from) {
      const uint8_t want = from.data()[depth];
      if (byte < want) return;        // prune: subtree entirely < from
      if (byte > want) *past_from = true;
      added += ScanRec(core, child, from, limit, depth + 1, past_from, out);
      return;
    }
    added += ScanRec(core, child, from, limit, depth + 1, past_from, out);
  };
  ForEachChild(n, visit);
  return added;
}

uint64_t Art::Scan(mcsim::CoreSim* core, const Key& from, uint64_t limit,
                   std::vector<uint64_t>* out) {
  bool past_from = false;
  const size_t before = out->size();
  ScanRec(core, root_, from, limit + before, 0, &past_from, out);
  return out->size() - before;
}

}  // namespace imoltp::index
