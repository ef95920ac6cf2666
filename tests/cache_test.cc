#include "mcsim/cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <list>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"

namespace imoltp::mcsim {
namespace {

CacheConfig Small(uint32_t size, uint32_t assoc) {
  return CacheConfig{size, 64, assoc};
}

TEST(CacheTest, FirstAccessMissesSecondHits) {
  Cache c(Small(4096, 4));
  EXPECT_FALSE(c.Access(100));
  EXPECT_TRUE(c.Access(100));
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.hits(), 1u);
}

TEST(CacheTest, LineZeroIsCacheable) {
  Cache c(Small(4096, 4));
  EXPECT_FALSE(c.Access(0));
  EXPECT_TRUE(c.Access(0));
  EXPECT_TRUE(c.Contains(0));
}

TEST(CacheTest, DistinctLinesDoNotAlias) {
  Cache c(Small(4096, 4));
  c.Access(1);
  EXPECT_FALSE(c.Access(2));
  EXPECT_TRUE(c.Contains(1));
  EXPECT_TRUE(c.Contains(2));
}

TEST(CacheTest, CapacityEvictsLeastRecentlyUsed) {
  // 4 sets x 2 ways; lines with the same low bits map to one set.
  Cache c(CacheConfig{512, 64, 2});
  ASSERT_EQ(c.num_sets(), 4u);
  const uint64_t set0[] = {0, 4, 8};  // all map to set 0
  c.Access(set0[0]);
  c.Access(set0[1]);
  c.Access(set0[2]);  // evicts line 0 (LRU)
  EXPECT_FALSE(c.Contains(set0[0]));
  EXPECT_TRUE(c.Contains(set0[1]));
  EXPECT_TRUE(c.Contains(set0[2]));
}

TEST(CacheTest, AccessRefreshesLruOrder) {
  Cache c(CacheConfig{512, 64, 2});
  c.Access(0);
  c.Access(4);
  c.Access(0);  // 4 becomes LRU
  c.Access(8);  // evicts 4
  EXPECT_TRUE(c.Contains(0));
  EXPECT_FALSE(c.Contains(4));
  EXPECT_TRUE(c.Contains(8));
}

TEST(CacheTest, InvalidateRemovesLine) {
  Cache c(Small(4096, 4));
  c.Access(7);
  EXPECT_TRUE(c.Contains(7));
  c.Invalidate(7);
  EXPECT_FALSE(c.Contains(7));
  EXPECT_FALSE(c.Access(7));  // miss again
}

TEST(CacheTest, InvalidateAbsentLineIsNoop) {
  Cache c(Small(4096, 4));
  c.Access(7);
  c.Invalidate(9999);
  EXPECT_TRUE(c.Contains(7));
}

TEST(CacheTest, ResetDropsContentsAndCounters) {
  Cache c(Small(4096, 4));
  c.Access(1);
  c.Access(1);
  c.Reset();
  EXPECT_EQ(c.hits(), 0u);
  EXPECT_EQ(c.misses(), 0u);
  EXPECT_FALSE(c.Contains(1));
}

TEST(CacheTest, ContainsDoesNotPerturbLru) {
  Cache c(CacheConfig{512, 64, 2});
  c.Access(0);
  c.Access(4);
  // Touch 0 via Contains only; 0 must remain the LRU victim.
  EXPECT_TRUE(c.Contains(0));
  c.Access(8);
  EXPECT_FALSE(c.Contains(0));
}

TEST(CacheTest, HighAddressBitsDifferentiateTags) {
  Cache c(Small(4096, 4));
  const uint64_t a = 5;
  const uint64_t b = 5 | (1ULL << 40);  // same set, different tag
  c.Access(a);
  EXPECT_FALSE(c.Access(b));
  EXPECT_TRUE(c.Contains(a));
  EXPECT_TRUE(c.Contains(b));
}

// Property sweep: for any geometry, a working set no larger than the
// cache must fully hit on the second pass, and a working set twice the
// capacity cycled sequentially must keep missing (LRU worst case).
struct Geometry {
  uint32_t size_bytes;
  uint32_t assoc;
};

class CacheGeometryTest : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometryTest, ResidentWorkingSetHitsOnSecondPass) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{g.size_bytes, 64, g.assoc});
  const uint64_t lines = g.size_bytes / 64;
  for (uint64_t i = 0; i < lines; ++i) c.Access(i);
  const uint64_t misses_before = c.misses();
  for (uint64_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(c.Access(i)) << "line " << i;
  }
  EXPECT_EQ(c.misses(), misses_before);
}

TEST_P(CacheGeometryTest, OversizedCyclicSweepKeepsMissing) {
  const Geometry g = GetParam();
  Cache c(CacheConfig{g.size_bytes, 64, g.assoc});
  const uint64_t lines = 2 * g.size_bytes / 64;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t i = 0; i < lines; ++i) c.Access(i);
  }
  // Sequential cyclic reuse at 2x capacity defeats LRU entirely.
  EXPECT_EQ(c.hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryTest,
    ::testing::Values(Geometry{1024, 1}, Geometry{4096, 2},
                      Geometry{32 * 1024, 8}, Geometry{256 * 1024, 8},
                      Geometry{1024 * 1024, 16}),
    [](const ::testing::TestParamInfo<Geometry>& info) {
      return std::to_string(info.param.size_bytes) + "b" +
             std::to_string(info.param.assoc) + "w";
    });

// Exact-LRU oracle: a naive per-set recency list, most recent first.
class LruModel {
 public:
  LruModel(uint64_t num_sets, uint32_t assoc)
      : assoc_(assoc), sets_(num_sets) {}

  bool Access(uint64_t line) {
    std::list<uint64_t>& set = SetOf(line);
    const auto it = std::find(set.begin(), set.end(), line);
    const bool hit = it != set.end();
    if (hit) {
      set.erase(it);
      ++hits_;
    } else {
      if (set.size() == assoc_) set.pop_back();
      ++misses_;
    }
    set.push_front(line);
    return hit;
  }

  bool Contains(uint64_t line) {
    const std::list<uint64_t>& set = SetOf(line);
    return std::find(set.begin(), set.end(), line) != set.end();
  }

  void Invalidate(uint64_t line) { SetOf(line).remove(line); }

  void Reset() {
    for (auto& set : sets_) set.clear();
    hits_ = misses_ = 0;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::list<uint64_t>& SetOf(uint64_t line) {
    return sets_[line % sets_.size()];
  }

  size_t assoc_;
  std::vector<std::list<uint64_t>> sets_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

struct OracleGeometry {
  const char* name;
  uint64_t size_bytes;
  uint32_t assoc;
};

void PrintTo(const OracleGeometry& g, std::ostream* os) { *os << g.name; }

uint64_t ExpectedSets(const OracleGeometry& g) {
  return std::bit_ceil(std::max<uint64_t>(1, g.size_bytes / 64 / g.assoc));
}

// Lines drawn from a handful of sets, each with twice as many distinct
// tags as ways, so every set keeps filling, hitting and evicting. The
// sets differ from a random base set in one index bit each, low and
// high: a mapping that merged two sets would show. Tags reach bit 40.
class LineMix {
 public:
  LineMix(uint64_t num_sets, uint32_t assoc, uint64_t seed)
      : rng_(seed), tags_(2ULL * assoc), num_sets_(num_sets) {
    const uint64_t base = rng_.Uniform(num_sets);
    sets_.push_back(base);
    for (uint64_t bit = 1; bit < num_sets && sets_.size() < 8; bit <<= 2) {
      sets_.push_back(base ^ bit);
    }
  }

  uint64_t Next() {
    uint64_t tag = rng_.Uniform(tags_);
    if (rng_.Uniform(4) == 0) tag |= 1ULL << 40;
    return tag * num_sets_ + sets_[rng_.Uniform(sets_.size())];
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<uint64_t> sets_;
  uint64_t tags_;
  uint64_t num_sets_;
};

class CacheOracleTest : public ::testing::TestWithParam<OracleGeometry> {};

TEST_P(CacheOracleTest, MatchesNaiveLruOnRandomMix) {
  const OracleGeometry g = GetParam();
  Cache c(CacheConfig{g.size_bytes, 64, g.assoc});
  ASSERT_EQ(c.num_sets(), ExpectedSets(g));
  LruModel model(c.num_sets(), g.assoc);
  LineMix mix(c.num_sets(), g.assoc, 7);
  for (int i = 0; i < 60000; ++i) {
    const uint64_t line = mix.Next();
    const uint64_t op = mix.rng().Uniform(1000);
    if (op < 700) {
      ASSERT_EQ(c.Access(line), model.Access(line)) << "op " << i;
    } else if (op < 850) {
      ASSERT_EQ(c.Contains(line), model.Contains(line)) << "op " << i;
    } else if (op < 998) {
      c.Invalidate(line);
      model.Invalidate(line);
    } else {
      c.Reset();
      model.Reset();
    }
    ASSERT_EQ(c.hits(), model.hits()) << "op " << i;
    ASSERT_EQ(c.misses(), model.misses()) << "op " << i;
  }
}

// The machine-shared LLC: MachineSim builds it from MachineConfig::llc.
TEST_P(CacheOracleTest, SharedCacheMatchesNaiveLru) {
  const OracleGeometry g = GetParam();
  MachineConfig config;
  config.llc = CacheConfig{g.size_bytes, 64, g.assoc};
  MachineSim machine(config);
  Cache& c = machine.llc();
  ASSERT_EQ(c.num_sets(), ExpectedSets(g));
  LruModel model(c.num_sets(), g.assoc);
  LineMix mix(c.num_sets(), g.assoc, 11);
  for (int i = 0; i < 60000; ++i) {
    const uint64_t line = mix.Next();
    if (mix.rng().Uniform(1000) < 998) {
      ASSERT_EQ(c.Access(line), model.Access(line)) << "op " << i;
    } else {
      c.Reset();
      model.Reset();
    }
    ASSERT_EQ(c.hits(), model.hits()) << "op " << i;
    ASSERT_EQ(c.misses(), model.misses()) << "op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheOracleTest,
    ::testing::Values(OracleGeometry{"direct_mapped", 4096, 1},
                      OracleGeometry{"dtlb64", 64 * 64, 4},
                      OracleGeometry{"stlb512", 512 * 64, 4},
                      OracleGeometry{"l1_32k", 32 * 1024, 8},
                      OracleGeometry{"l2_256k", 256 * 1024, 8},
                      OracleGeometry{"llc_20m", 20 * 1024 * 1024, 20},
                      // 12288 sets round up to 16384.
                      OracleGeometry{"llc_12m_16w", 12 * 1024 * 1024, 16}),
    [](const ::testing::TestParamInfo<OracleGeometry>& info) {
      return std::string(info.param.name);
    });

// The L1I: CodeCache against the same oracle, on the stream instruction
// fetch makes: runs of consecutive lines (a region's fetch window) at
// random offsets inside Shore-MT-sized regions (13-20 KB, 10-11 KB
// windows) laid out as CodeSpace lays them out, plus one small region
// fetched whole. Between runs: Contains, Invalidate of present code
// lines and of data lines (never present), and a rare Reset.
class CodeCacheOracleTest
    : public ::testing::TestWithParam<OracleGeometry> {};

TEST_P(CodeCacheOracleTest, MatchesNaiveLruOnRegionRuns) {
  const OracleGeometry g = GetParam();
  CodeCache c(CacheConfig{g.size_bytes, 64, g.assoc});
  ASSERT_EQ(c.num_sets(), ExpectedSets(g));
  LruModel model(c.num_sets(), g.assoc);
  Rng rng(13);
  struct Span {
    uint64_t base;
    uint64_t total;
    uint64_t touched;
  };
  std::vector<Span> regions;
  uint64_t next = kCodeBaseLine;
  for (int i = 0; i < 6; ++i) {
    const uint64_t total = rng.Range(13 * 16, 20 * 16);
    regions.push_back({next, total, rng.Range(10 * 16, 11 * 16)});
    next += total + 8;
  }
  regions.push_back({next, 32, 32});
  const uint64_t data_lines[] = {0, kCodeBaseLine - 1,
                                 kCodeBaseLine + kMaxCodeLines,
                                 0x5555'0000'0000ULL >> 6,
                                 0x7fff'f000'0000ULL >> 6};
  uint64_t present_invalidations = 0;
  for (int i = 0; i < 3000; ++i) {
    const Span& r = regions[rng.Uniform(regions.size())];
    const uint64_t op = rng.Uniform(1000);
    if (op < 800) {
      const uint64_t start = r.base + rng.Uniform(r.total - r.touched + 1);
      for (uint64_t line = start; line < start + r.touched; ++line) {
        ASSERT_EQ(c.Access(line), model.Access(line)) << "op " << i;
      }
    } else if (op < 880) {
      const uint64_t line = r.base + rng.Uniform(r.total);
      ASSERT_EQ(c.Contains(line), model.Contains(line)) << "op " << i;
    } else if (op < 960) {
      const uint64_t line = r.base + rng.Uniform(r.total);
      if (model.Contains(line)) ++present_invalidations;
      c.Invalidate(line);
      model.Invalidate(line);
      ASSERT_FALSE(c.Contains(line)) << "op " << i;
    } else if (op < 998) {
      const uint64_t line = data_lines[rng.Uniform(std::size(data_lines))];
      ASSERT_FALSE(c.Contains(line)) << "op " << i;
      c.Invalidate(line);
    } else {
      c.Reset();
      model.Reset();
    }
    ASSERT_EQ(c.hits(), model.hits()) << "op " << i;
    ASSERT_EQ(c.misses(), model.misses()) << "op " << i;
  }
  EXPECT_GT(present_invalidations, 10u);
  EXPECT_GT(c.hits(), 0u);
  EXPECT_GT(c.misses(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CodeCacheOracleTest,
    ::testing::Values(OracleGeometry{"l1i_32k", 32 * 1024, 8},
                      OracleGeometry{"l1i_32k_direct", 32 * 1024, 1},
                      OracleGeometry{"l1i_64k_16w", 64 * 1024, 16},
                      // The most ways a trace header may ask for.
                      OracleGeometry{"l1i_32k_256w", 32 * 1024, 256}),
    [](const ::testing::TestParamInfo<OracleGeometry>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace imoltp::mcsim
