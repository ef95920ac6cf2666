#include "mcsim/cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace imoltp::mcsim {

namespace {

uint64_t NumSets(const CacheConfig& config, uint32_t assoc) {
  const uint64_t lines =
      std::max<uint64_t>(assoc, config.size_bytes / config.line_bytes);
  return std::bit_ceil(std::max<uint64_t>(1, lines / assoc));
}

}  // namespace

Cache::Cache(const CacheConfig& config) {
  assoc_ = std::max<uint32_t>(1, config.associativity);
  IMOLTP_CHECK(assoc_ <= kMaxAssociativity, "cache associativity too high");
  num_sets_ = NumSets(config, assoc_);
  set_mask_ = num_sets_ - 1;
  sets_.assign(num_sets_ * 2 * assoc_, 0);
  mru_.assign(num_sets_, 0);
}

void Cache::Invalidate(uint64_t line_addr) {
  const uint64_t set = SetIndex(line_addr);
  uint32_t victim = 0;
  const uint32_t way = Probe(set, line_addr | kValidBit, &victim);
  if (way == assoc_) return;
  uint64_t* tags = Tags(set);
  tags[way] = 0;
  tags[assoc_ + way] = 0;
}

void Cache::Reset() {
  std::fill(sets_.begin(), sets_.end(), 0);
  std::fill(mru_.begin(), mru_.end(), 0);
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

SharedCache::SharedCache(const CacheConfig& config) {
  const uint32_t assoc = std::max<uint32_t>(1, config.associativity);
  num_sets_ = NumSets(config, assoc);
  const uint64_t shards = std::min(kMaxShards, num_sets_);
  shard_bits_ = std::countr_zero(shards);
  CacheConfig shard_config = config;
  shard_config.size_bytes =
      num_sets_ / shards * assoc * static_cast<uint64_t>(config.line_bytes);
  for (uint64_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_config));
  }
}

void SharedCache::Reset() {
  for (auto& shard : shards_) shard->sets.Reset();
}

uint64_t SharedCache::hits() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sets.hits();
  return total;
}

uint64_t SharedCache::misses() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sets.misses();
  return total;
}

}  // namespace imoltp::mcsim
