#ifndef IMOLTP_MCSIM_CACHE_H_
#define IMOLTP_MCSIM_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "mcsim/config.h"

namespace imoltp::mcsim {

/// A set-associative cache with true-LRU replacement, operating on line
/// addresses (byte address >> log2(line size)). This is the only data
/// structure on the simulation hot path, so lookups are a linear tag scan
/// over one set (associativity is 8–20).
///
/// Threading: private caches (L1I/L1D/L2/TLBs) are thread-confined to one
/// host thread and never need locking. The machine-shared LLC is switched
/// into concurrent mode (`set_concurrent(true)`) for free-running parallel
/// execution; set state is then guarded by sharded per-set-group mutexes.
/// Hit/miss/tick counters are relaxed atomics in every mode — in serial
/// mode all accesses are totally ordered, so the counts (and
/// the LRU stamps derived from tick_) stay bit-identical to the historical
/// single-threaded values.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up a line; inserts it (evicting LRU) on miss.
  /// Returns true on hit.
  bool Access(uint64_t line_addr) {
    if (concurrent_) {
      std::lock_guard<std::mutex> guard(ShardFor(line_addr));
      return AccessLocked(line_addr);
    }
    return AccessLocked(line_addr);
  }

  /// Returns true if the line is present (no replacement state change).
  bool Contains(uint64_t line_addr) const {
    if (concurrent_) {
      std::lock_guard<std::mutex> guard(ShardFor(line_addr));
      return ContainsLocked(line_addr);
    }
    return ContainsLocked(line_addr);
  }

  /// Removes a line if present (cross-core write invalidation).
  void Invalidate(uint64_t line_addr);

  /// Drops all lines and zeroes hit/miss counters.
  void Reset();

  /// Guards set state with sharded mutexes so concurrent Access /
  /// Contains / Invalidate calls from different host threads are safe.
  /// Only ever enabled on the shared LLC, and only in free-running
  /// parallel mode; private caches stay lock-free.
  void set_concurrent(bool concurrent) { concurrent_ = concurrent; }
  bool concurrent() const { return concurrent_; }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  uint64_t num_sets() const { return num_sets_; }
  uint32_t associativity() const { return assoc_; }
  const CacheConfig& config() const { return config_; }

 private:
  // Tag 0 must not alias an empty way; real line addresses can be 0 after
  // shifting, so every valid tag has this bit set (bit 63 is never used by
  // line addresses derived from 48-bit virtual addresses).
  static constexpr uint64_t kValidBit = 1ULL << 63;
  // Shard count for concurrent mode: enough that 4-16 host threads rarely
  // collide, small enough that the mutex array stays cache-resident.
  static constexpr uint64_t kShards = 64;

  uint64_t SetIndex(uint64_t line_addr) const {
    return line_addr & set_mask_;
  }

  std::mutex& ShardFor(uint64_t line_addr) const {
    return shard_mu_[SetIndex(line_addr) & (kShards - 1)];
  }

  bool AccessLocked(uint64_t line_addr) {
    const uint64_t set = SetIndex(line_addr);
    const uint64_t tag = line_addr | kValidBit;
    uint64_t* tags = &tags_[set * assoc_];
    uint64_t* stamps = &stamps_[set * assoc_];
    const uint64_t now =
        tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint32_t victim = 0;
    uint64_t victim_stamp = UINT64_MAX;
    for (uint32_t way = 0; way < assoc_; ++way) {
      if (tags[way] == tag) {
        stamps[way] = now;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (stamps[way] < victim_stamp) {
        victim_stamp = stamps[way];
        victim = way;
      }
    }
    tags[victim] = tag;
    stamps[victim] = now;
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  bool ContainsLocked(uint64_t line_addr) const {
    const uint64_t set = SetIndex(line_addr);
    const uint64_t tag = line_addr | kValidBit;
    const uint64_t* tags = &tags_[set * assoc_];
    for (uint32_t way = 0; way < assoc_; ++way) {
      if (tags[way] == tag) return true;
    }
    return false;
  }

  void InvalidateLocked(uint64_t line_addr);

  CacheConfig config_;
  uint32_t assoc_;
  uint64_t num_sets_;
  uint64_t set_mask_;
  bool concurrent_ = false;
  std::atomic<uint64_t> tick_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::vector<uint64_t> tags_;
  std::vector<uint64_t> stamps_;
  mutable std::unique_ptr<std::mutex[]> shard_mu_;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CACHE_H_
