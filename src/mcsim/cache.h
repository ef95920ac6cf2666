#ifndef IMOLTP_MCSIM_CACHE_H_
#define IMOLTP_MCSIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "mcsim/code_region.h"
#include "mcsim/config.h"

namespace imoltp::mcsim {

/// A set-associative cache with exact LRU replacement, operating on line
/// addresses (byte address >> log2(line size)). This is the only data
/// structure on the simulation hot path. Each set is one block of memory
/// holding its ways' tags followed by their LRU stamps, and the set
/// remembers its most-recently-used way, which every lookup probes
/// before scanning the set. On a miss the victim is an empty way if the
/// set has one, else the way with the oldest stamp, i.e. the
/// least-recently-used line.
///
/// The private L1D/L2/TLBs of a core are Caches, its L1I a CodeCache,
/// and the machine-shared LLC is one Cache whose sets are in set-index
/// order: consecutive lines map to consecutive sets, so a sequential
/// stream (cache warm-up) walks the set array in address order. One host
/// thread drives a machine, so no cache holds a lock.
class Cache {
 public:
  /// The MRU way index is stored in one byte per set.
  static constexpr uint32_t kMaxAssociativity = 256;

  explicit Cache(const CacheConfig& config);

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  /// Looks up a line; inserts it (evicting LRU) on miss.
  /// Returns true on hit.
  bool Access(uint64_t line_addr) {
    const uint64_t set = SetIndex(line_addr);
    const uint64_t tag = line_addr | kValidBit;
    uint32_t victim = 0;
    uint32_t way = Probe(set, tag, &victim);
    const bool hit = way != assoc_;
    uint64_t* tags = Tags(set);
    if (hit) {
      ++hits_;
    } else {
      way = victim;
      tags[way] = tag;
      ++misses_;
    }
    tags[assoc_ + way] = ++tick_;
    mru_[set] = static_cast<uint8_t>(way);
    return hit;
  }

  /// Returns true if the line is present (no replacement state change).
  bool Contains(uint64_t line_addr) const {
    uint32_t victim = 0;
    return Probe(SetIndex(line_addr), line_addr | kValidBit, &victim) !=
           assoc_;
  }

  /// Removes a line if present (cross-core write invalidation).
  void Invalidate(uint64_t line_addr);

  /// Drops all lines and zeroes hit/miss counters.
  void Reset();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t num_sets() const { return num_sets_; }

 private:
  // Tag 0 must not alias an empty way; real line addresses can be 0 after
  // shifting, so every valid tag has this bit set (bit 63 is never used by
  // line addresses derived from 48-bit virtual addresses).
  static constexpr uint64_t kValidBit = 1ULL << 63;

  uint64_t SetIndex(uint64_t line_addr) const {
    return line_addr & set_mask_;
  }

  /// The block of `set`: assoc_ tags, then assoc_ stamps. An empty way
  /// has tag 0 and stamp 0; a filled way's stamp is the cache clock at
  /// its last access, so stamps order a set by recency.
  uint64_t* Tags(uint64_t set) { return &sets_[set * 2 * assoc_]; }
  const uint64_t* Tags(uint64_t set) const {
    return &sets_[set * 2 * assoc_];
  }

  /// The way of `set` holding `tag`, or assoc_ when absent. The set's
  /// MRU way is probed first. A scan that finds no match leaves in
  /// `victim` the first way with the oldest stamp: the first empty way,
  /// else the least-recently-used one. Tags and stamps are read in one
  /// pass so both halves of the block are fetched together.
  uint32_t Probe(uint64_t set, uint64_t tag, uint32_t* victim) const {
    const uint64_t* tags = Tags(set);
    const uint64_t* stamps = tags + assoc_;
    const uint32_t mru = mru_[set];
    if (tags[mru] == tag) return mru;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t way = 0; way < assoc_; ++way) {
      if (tags[way] == tag) return way;
      if (stamps[way] < oldest) {
        oldest = stamps[way];
        *victim = way;
      }
    }
    return assoc_;
  }

  uint32_t assoc_;
  uint64_t num_sets_;
  uint64_t set_mask_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::vector<uint64_t> sets_;
  std::vector<uint8_t> mru_;
};

/// A core's L1 instruction cache. Only instruction fetch fills it, and
/// fetch only names CodeSpace lines: one dense range of at most
/// kMaxCodeLines lines from kCodeBaseLine. So next to Cache's per-set
/// LRU stamps it keeps a way map indexed by `line - kCodeBaseLine`, and
/// a lookup is an array index, not a tag scan: a hit is one map load
/// and one stamp store. Geometry (bit_ceil sets, `line & set_mask`), LRU
/// stamps and the victim rule (the first empty way, else the oldest
/// stamp) are Cache's, so the same stream gives the same hits, misses
/// and victims. A line outside the code range (a data line probed by
/// cross-core invalidation or HoldsLine) is never present; filling one
/// is a checked error.
class CodeCache {
 public:
  explicit CodeCache(const CacheConfig& config);

  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  /// Looks up a code line; inserts it (evicting LRU) on miss.
  /// Returns true on hit.
  bool Access(uint64_t line_addr) {
    const uint64_t offset = line_addr - kCodeBaseLine;
    if (offset < way_of_.size() && way_of_[offset] != kAbsent) {
      stamps_[SetIndex(offset) * assoc_ + way_of_[offset]] = ++tick_;
      ++hits_;
      return true;
    }
    Fill(offset);
    return false;
  }

  /// Returns true if the line is present (no replacement state change).
  bool Contains(uint64_t line_addr) const {
    const uint64_t offset = line_addr - kCodeBaseLine;
    return offset < way_of_.size() && way_of_[offset] != kAbsent;
  }

  /// Removes a line if present (cross-core write invalidation).
  void Invalidate(uint64_t line_addr) {
    const uint64_t offset = line_addr - kCodeBaseLine;
    if (offset >= way_of_.size() || way_of_[offset] == kAbsent) return;
    stamps_[SetIndex(offset) * assoc_ + way_of_[offset]] = 0;
    way_of_[offset] = kAbsent;
  }

  /// Drops all lines and zeroes hit/miss counters.
  void Reset();

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t num_sets() const { return num_sets_; }

 private:
  /// Way-map value of a line that is not cached; every way index of a
  /// Cache::kMaxAssociativity-way set lies below it.
  static constexpr uint16_t kAbsent = UINT16_MAX;
  static_assert(Cache::kMaxAssociativity <= kAbsent);

  /// kCodeBaseLine is a multiple of every set count, so a line's offset
  /// and the line itself have the same set.
  uint64_t SetIndex(uint64_t offset) const { return offset & set_mask_; }

  /// Miss path: picks the victim way of the offset's set, drops the
  /// victim's map entry and installs the line, growing the map on
  /// demand (regions are defined lazily).
  void Fill(uint64_t offset);

  uint32_t assoc_;
  uint64_t num_sets_;
  uint64_t set_mask_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  /// Per way, set by set: the LRU stamp (0 = empty) and the offset of
  /// the line held.
  std::vector<uint64_t> stamps_;
  std::vector<uint32_t> offsets_;
  /// Per code line offset: its way, or kAbsent.
  std::vector<uint16_t> way_of_;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CACHE_H_
