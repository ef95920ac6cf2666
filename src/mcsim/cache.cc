#include "mcsim/cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace imoltp::mcsim {

namespace {

uint32_t Associativity(const CacheConfig& config) {
  const uint32_t assoc = std::max<uint32_t>(1, config.associativity);
  IMOLTP_CHECK(assoc <= Cache::kMaxAssociativity,
               "cache associativity too high");
  return assoc;
}

/// Capacity over associativity, rounded up to a power of two.
uint64_t NumSets(const CacheConfig& config, uint32_t assoc) {
  const uint64_t lines =
      std::max<uint64_t>(assoc, config.size_bytes / config.line_bytes);
  return std::bit_ceil(std::max<uint64_t>(1, lines / assoc));
}

}  // namespace

Cache::Cache(const CacheConfig& config) {
  assoc_ = Associativity(config);
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

CodeCache::CodeCache(const CacheConfig& config) {
  assoc_ = Associativity(config);
  num_sets_ = NumSets(config, assoc_);
  set_mask_ = num_sets_ - 1;
  stamps_.assign(num_sets_ * assoc_, 0);
  offsets_.assign(num_sets_ * assoc_, 0);
}

void CodeCache::Fill(uint64_t offset) {
  IMOLTP_CHECK(offset < kMaxCodeLines, "code fetch outside the code space");
  if (offset >= way_of_.size()) {
    way_of_.resize(std::max<uint64_t>(4096, std::bit_ceil(offset + 1)),
                   kAbsent);
  }
  const uint64_t first = SetIndex(offset) * assoc_;
  const uint64_t* stamps = &stamps_[first];
  // The first way with the oldest stamp; selects, not branches, since
  // which way is oldest is unpredictable.
  uint64_t oldest = stamps[0];
  uint32_t victim = 0;
  for (uint32_t way = 1; way < assoc_; ++way) {
    const bool older = stamps[way] < oldest;
    oldest = older ? stamps[way] : oldest;
    victim = older ? way : victim;
  }
  if (oldest != 0) way_of_[offsets_[first + victim]] = kAbsent;
  stamps_[first + victim] = ++tick_;
  offsets_[first + victim] = static_cast<uint32_t>(offset);
  way_of_[offset] = static_cast<uint16_t>(victim);
  ++misses_;
}

void CodeCache::Reset() {
  std::fill(stamps_.begin(), stamps_.end(), 0);
  std::fill(way_of_.begin(), way_of_.end(), kAbsent);
  tick_ = 0;
  hits_ = 0;
  misses_ = 0;
}

}  // namespace imoltp::mcsim
