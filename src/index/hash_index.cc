#include "index/hash_index.h"

#include <bit>
#include <cstddef>
#include <cstring>

namespace imoltp::index {

namespace {
constexpr uint32_t kPoolSegment = 1 << 18;  // bytes per pool segment
}  // namespace

HashIndex::HashIndex(uint32_t key_bytes, uint64_t initial_buckets)
    : key_bytes_(key_bytes) {
  // Fixed-size entries sized for this index's keys, 8-byte aligned.
  entry_bytes_ = static_cast<uint32_t>(
      (offsetof(Entry, key) + key_bytes_ + 7) & ~7u);
  buckets_.assign(std::bit_ceil(initial_buckets), nullptr);
}

HashIndex::Entry* HashIndex::AllocEntry() {
  if (free_list_ != nullptr) {
    Entry* e = free_list_;
    free_list_ = e->next;
    return e;
  }
  if (pool_.empty() || pool_used_ + entry_bytes_ > kPoolSegment) {
    pool_.push_back(std::make_unique<uint8_t[]>(kPoolSegment));
    pool_used_ = 0;
  }
  Entry* e = reinterpret_cast<Entry*>(pool_.back().get() + pool_used_);
  pool_used_ += entry_bytes_;
  return e;
}

void HashIndex::MaybeGrow() {
  if (size_ <= buckets_.size()) return;
  std::vector<Entry*> bigger(buckets_.size() * 2, nullptr);
  const uint64_t mask = bigger.size() - 1;
  for (Entry* head : buckets_) {
    while (head != nullptr) {
      Entry* next = head->next;
      const uint64_t b =
          Key::FromBytes(head->key, head->key_len).Hash() & mask;
      head->next = bigger[b];
      bigger[b] = head;
      head = next;
    }
  }
  buckets_.swap(bigger);
}

Status HashIndex::Insert(mcsim::CoreSim* core, const Key& key,
                         uint64_t value) {
  const uint64_t b = key.Hash() & (buckets_.size() - 1);
  core->Retire(10);  // hash computation
  core->Read(reinterpret_cast<uint64_t>(&buckets_[b]), 8);
  for (Entry* e = buckets_[b]; e != nullptr; e = e->next) {
    core->Read(reinterpret_cast<uint64_t>(e), 16 + e->key_len);
    core->Retire(6 + 6 * ((e->key_len + 7) / 8));
    if (e->key_len == key.size() &&
        std::memcmp(e->key, key.data(), key.size()) == 0) {
      return Status::AlreadyExists();
    }
  }
  Entry* e = AllocEntry();
  e->next = buckets_[b];
  e->value = value;
  e->key_len = key.size();
  std::memcpy(e->key, key.data(), key.size());
  buckets_[b] = e;
  core->Write(reinterpret_cast<uint64_t>(e), 16 + key.size());
  core->Write(reinterpret_cast<uint64_t>(&buckets_[b]), 8);
  core->Retire(12);
  ++size_;
  MarkDirty();
  MaybeGrow();
  return Status::Ok();
}

bool HashIndex::Lookup(mcsim::CoreSim* core, const Key& key,
                       uint64_t* value) {
  const uint64_t b = key.Hash() & (buckets_.size() - 1);
  core->Retire(10);
  core->Read(reinterpret_cast<uint64_t>(&buckets_[b]), 8);
  for (Entry* e = buckets_[b]; e != nullptr; e = e->next) {
    core->Read(reinterpret_cast<uint64_t>(e), 16 + e->key_len);
    core->Retire(6 + 6 * ((e->key_len + 7) / 8));
    if (e->key_len == key.size() &&
        std::memcmp(e->key, key.data(), key.size()) == 0) {
      *value = e->value;
      return true;
    }
  }
  return false;
}

bool HashIndex::Remove(mcsim::CoreSim* core, const Key& key) {
  const uint64_t b = key.Hash() & (buckets_.size() - 1);
  core->Retire(10);
  core->Read(reinterpret_cast<uint64_t>(&buckets_[b]), 8);
  Entry** link = &buckets_[b];
  for (Entry* e = *link; e != nullptr; link = &e->next, e = e->next) {
    core->Read(reinterpret_cast<uint64_t>(e), 16 + e->key_len);
    core->Retire(6 + 6 * ((e->key_len + 7) / 8));
    if (e->key_len == key.size() &&
        std::memcmp(e->key, key.data(), key.size()) == 0) {
      *link = e->next;
      e->next = free_list_;
      free_list_ = e;
      core->Write(reinterpret_cast<uint64_t>(link), 8);
      core->Retire(6);
      --size_;
      MarkDirty();
      return true;
    }
  }
  return false;
}

uint64_t HashIndex::Scan(mcsim::CoreSim* core, const Key& from,
                         uint64_t limit, std::vector<uint64_t>* out) {
  (void)core;
  (void)from;
  (void)limit;
  (void)out;
  return 0;  // unordered structure: range scans unsupported
}

void HashIndex::ForEach(
    const std::function<void(const Key&, uint64_t)>& fn) const {
  for (const Entry* head : buckets_) {
    for (const Entry* e = head; e != nullptr; e = e->next) {
      fn(Key::FromBytes(e->key, e->key_len), e->value);
    }
  }
}

}  // namespace imoltp::index
