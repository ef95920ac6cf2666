#include "mcsim/cache.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace imoltp::mcsim {

Cache::Cache(const CacheConfig& config) {
  assoc_ = std::max<uint32_t>(1, config.associativity);
  IMOLTP_CHECK(assoc_ <= kMaxAssociativity, "cache associativity too high");
  const uint64_t lines =
      std::max<uint64_t>(assoc_, config.size_bytes / config.line_bytes);
  num_sets_ = std::bit_ceil(std::max<uint64_t>(1, lines / assoc_));
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

}  // namespace imoltp::mcsim
