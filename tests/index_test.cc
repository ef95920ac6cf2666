#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "index/art.h"
#include "index/btree.h"
#include "index/hash_index.h"
#include "index/index.h"
#include "mcsim/machine.h"

namespace imoltp::index {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

// ---------------------------------------------------------------------------
// Key
// ---------------------------------------------------------------------------

TEST(KeyTest, Uint64RoundTrip) {
  const Key k = Key::FromUint64(0x0123456789abcdefULL);
  EXPECT_EQ(k.size(), 8u);
  EXPECT_EQ(k.AsUint64(), 0x0123456789abcdefULL);
}

TEST(KeyTest, BigEndianEncodingPreservesNumericOrder) {
  for (uint64_t a : {0ULL, 1ULL, 255ULL, 256ULL, 1ULL << 32, ~0ULL}) {
    for (uint64_t b : {0ULL, 2ULL, 257ULL, 1ULL << 33}) {
      const int cmp = Key::FromUint64(a).Compare(Key::FromUint64(b));
      if (a < b) {
        EXPECT_LT(cmp, 0) << a << " vs " << b;
      } else if (a == b) {
        EXPECT_EQ(cmp, 0);
      } else {
        EXPECT_GT(cmp, 0) << a << " vs " << b;
      }
    }
  }
}

TEST(KeyTest, ByteKeysCompareLikeMemcmpThenLength) {
  const Key ab = Key::FromBytes("ab", 2);
  const Key abc = Key::FromBytes("abc", 3);
  const Key b = Key::FromBytes("b", 1);
  EXPECT_LT(ab.Compare(abc), 0);
  EXPECT_LT(abc.Compare(b), 0);
  EXPECT_EQ(ab.Compare(Key::FromBytes("ab", 2)), 0);
}

TEST(KeyTest, HashIsStable) {
  EXPECT_EQ(Key::FromUint64(42).Hash(), Key::FromUint64(42).Hash());
  EXPECT_NE(Key::FromUint64(42).Hash(), Key::FromUint64(43).Hash());
}

TEST(KeyTest, ComposeOrdersByLeadingComponent) {
  EXPECT_LT(Compose2(1, 500, 16), Compose2(2, 0, 16));
  EXPECT_LT(Compose3(1, 9, 4, 100, 24), Compose3(1, 10, 4, 0, 24));
}

// ---------------------------------------------------------------------------
// Cross-structure conformance: every index obeys the same contract.
// ---------------------------------------------------------------------------

struct IndexCase {
  IndexKind kind;
  uint32_t key_bytes;
};

class IndexConformanceTest : public ::testing::TestWithParam<IndexCase> {
 protected:
  IndexConformanceTest()
      : machine_(NoTlb()),
        core_(&machine_.core(0)),
        index_(CreateIndex(GetParam().kind, GetParam().key_bytes)) {}

  Key K(uint64_t id) const {
    if (GetParam().key_bytes == 8) return Key::FromUint64(id);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%049llu",
                  static_cast<unsigned long long>(id));
    return Key::FromBytes(buf, 50);
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
  std::unique_ptr<Index> index_;
};

TEST_P(IndexConformanceTest, EmptyLookupFails) {
  uint64_t v;
  EXPECT_FALSE(index_->Lookup(core_, K(1), &v));
  EXPECT_EQ(index_->size(), 0u);
}

TEST_P(IndexConformanceTest, InsertLookupRoundTrip) {
  ASSERT_TRUE(index_->Insert(core_, K(10), 100).ok());
  uint64_t v = 0;
  ASSERT_TRUE(index_->Lookup(core_, K(10), &v));
  EXPECT_EQ(v, 100u);
  EXPECT_FALSE(index_->Lookup(core_, K(11), &v));
  EXPECT_EQ(index_->size(), 1u);
}

TEST_P(IndexConformanceTest, DuplicateInsertRejected) {
  ASSERT_TRUE(index_->Insert(core_, K(5), 1).ok());
  const Status s = index_->Insert(core_, K(5), 2);
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  uint64_t v = 0;
  ASSERT_TRUE(index_->Lookup(core_, K(5), &v));
  EXPECT_EQ(v, 1u);  // original value kept
  EXPECT_EQ(index_->size(), 1u);
}

TEST_P(IndexConformanceTest, RemoveThenLookupFails) {
  ASSERT_TRUE(index_->Insert(core_, K(5), 1).ok());
  EXPECT_TRUE(index_->Remove(core_, K(5)));
  uint64_t v;
  EXPECT_FALSE(index_->Lookup(core_, K(5), &v));
  EXPECT_FALSE(index_->Remove(core_, K(5)));
  EXPECT_EQ(index_->size(), 0u);
}

TEST_P(IndexConformanceTest, SequentialBulkThenProbeAll) {
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(index_->Insert(core_, K(i), i * 2).ok()) << i;
  }
  EXPECT_EQ(index_->size(), kN);
  uint64_t v = 0;
  for (uint64_t i = 0; i < kN; i += 37) {
    ASSERT_TRUE(index_->Lookup(core_, K(i), &v)) << i;
    ASSERT_EQ(v, i * 2);
  }
  EXPECT_FALSE(index_->Lookup(core_, K(kN), &v));
}

TEST_P(IndexConformanceTest, RandomizedOpsMatchStdMapOracle) {
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(GetParam().key_bytes * 1000 +
          static_cast<uint64_t>(GetParam().kind));
  for (int step = 0; step < 30000; ++step) {
    const uint64_t id = rng.Uniform(4000);
    const int op = static_cast<int>(rng.Uniform(10));
    if (op < 5) {  // insert
      const uint64_t value = rng.Next() >> 1;
      const bool existed = oracle.count(id) > 0;
      const Status s = index_->Insert(core_, K(id), value);
      ASSERT_EQ(s.ok(), !existed) << "step " << step << " id " << id;
      if (!existed) oracle[id] = value;
    } else if (op < 8) {  // lookup
      uint64_t v = 0;
      const bool found = index_->Lookup(core_, K(id), &v);
      auto it = oracle.find(id);
      ASSERT_EQ(found, it != oracle.end()) << "step " << step;
      if (found) {
        ASSERT_EQ(v, it->second);
      }
    } else {  // remove
      const bool removed = index_->Remove(core_, K(id));
      ASSERT_EQ(removed, oracle.erase(id) > 0) << "step " << step;
    }
    ASSERT_EQ(index_->size(), oracle.size());
  }
}

TEST_P(IndexConformanceTest, OrderedScanMatchesOracle) {
  if (!index_->ordered()) GTEST_SKIP() << "unordered structure";
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(99);
  for (int i = 0; i < 3000; ++i) {
    const uint64_t id = rng.Uniform(100000);
    if (index_->Insert(core_, K(id), id + 7).ok()) oracle[id] = id + 7;
  }
  for (uint64_t from : {0ULL, 777ULL, 50000ULL, 99999ULL}) {
    std::vector<uint64_t> got;
    index_->Scan(core_, K(from), 100, &got);
    std::vector<uint64_t> want;
    for (auto it = oracle.lower_bound(from);
         it != oracle.end() && want.size() < 100; ++it) {
      want.push_back(it->second);
    }
    ASSERT_EQ(got, want) << "scan from " << from;
  }
}

TEST_P(IndexConformanceTest, ScanAfterRemovalsSkipsDeleted) {
  if (!index_->ordered()) GTEST_SKIP() << "unordered structure";
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(index_->Insert(core_, K(i), i).ok());
  }
  for (uint64_t i = 0; i < 100; i += 2) {
    ASSERT_TRUE(index_->Remove(core_, K(i)));
  }
  std::vector<uint64_t> got;
  index_->Scan(core_, K(0), 1000, &got);
  ASSERT_EQ(got.size(), 50u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 2 * i + 1);
  }
}

TEST_P(IndexConformanceTest, TracesMemoryThroughTheCore) {
  const uint64_t before = core_->counters().data_accesses;
  ASSERT_TRUE(index_->Insert(core_, K(1), 1).ok());
  uint64_t v;
  index_->Lookup(core_, K(1), &v);
  EXPECT_GT(core_->counters().data_accesses, before);
  EXPECT_GT(core_->counters().instructions, 0u);
}

TEST_P(IndexConformanceTest, ForEachVisitsExactlyTheLivePairs) {
  std::map<uint64_t, uint64_t> oracle;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const uint64_t id = rng.Uniform(100000);
    if (index_->Insert(core_, K(id), id * 3).ok()) oracle[id] = id * 3;
  }
  for (auto it = oracle.begin(); it != oracle.end();) {
    if (rng.Uniform(3) == 0) {
      ASSERT_TRUE(index_->Remove(core_, K(it->first)));
      it = oracle.erase(it);
    } else {
      ++it;
    }
  }
  std::vector<std::pair<Key, uint64_t>> want;
  for (const auto& [id, value] : oracle) want.emplace_back(K(id), value);

  const mcsim::CoreCounters before = core_->counters();
  std::vector<std::pair<Key, uint64_t>> got;
  index_->ForEach(
      [&got](const Key& key, uint64_t value) { got.emplace_back(key, value); });
  // Host-only: the walk is invisible to the simulated core.
  EXPECT_EQ(core_->counters().instructions, before.instructions);
  EXPECT_EQ(core_->counters().data_accesses, before.data_accesses);

  if (!index_->ordered()) std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(got[i].first == want[i].first) << "entry " << i;
    ASSERT_EQ(got[i].second, want[i].second) << "entry " << i;
  }
}

TEST_P(IndexConformanceTest, DirtyBitTracksSuccessfulMutations) {
  ASSERT_TRUE(index_->Insert(core_, K(1), 1).ok());
  EXPECT_TRUE(index_->dirty());
  index_->MarkClean();
  EXPECT_FALSE(index_->dirty());

  // Failed mutations and reads leave it clean.
  EXPECT_FALSE(index_->Insert(core_, K(1), 2).ok());
  EXPECT_FALSE(index_->Remove(core_, K(2)));
  uint64_t v = 0;
  EXPECT_TRUE(index_->Lookup(core_, K(1), &v));
  std::vector<uint64_t> scanned;
  index_->Scan(core_, K(0), 10, &scanned);
  index_->ForEach([](const Key&, uint64_t) {});
  EXPECT_FALSE(index_->dirty());

  ASSERT_TRUE(index_->Insert(core_, K(2), 2).ok());
  EXPECT_TRUE(index_->dirty());
  index_->MarkClean();
  ASSERT_TRUE(index_->Remove(core_, K(2)));
  EXPECT_TRUE(index_->dirty());
}

std::string CaseName(const ::testing::TestParamInfo<IndexCase>& info) {
  std::string name = std::string(IndexKindName(info.param.kind)) + "_" +
                     std::to_string(info.param.key_bytes) + "b";
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllIndexes, IndexConformanceTest,
    ::testing::Values(IndexCase{IndexKind::kBTree8K, 8},
                      IndexCase{IndexKind::kBTreeCacheline, 8},
                      IndexCase{IndexKind::kBTreeCc, 8},
                      IndexCase{IndexKind::kArt, 8},
                      IndexCase{IndexKind::kHash, 8},
                      IndexCase{IndexKind::kBTree8K, 50},
                      IndexCase{IndexKind::kBTreeCacheline, 50},
                      IndexCase{IndexKind::kArt, 50},
                      IndexCase{IndexKind::kHash, 50}),
    CaseName);

// ---------------------------------------------------------------------------
// Structure-specific behavior
// ---------------------------------------------------------------------------

TEST(BTreeTest, HeightGrowsLogarithmically) {
  mcsim::MachineSim m(NoTlb());
  BTree t(256, 8, IndexKind::kBTreeCc);
  EXPECT_EQ(t.height(), 1u);
  for (uint64_t i = 0; i < 10000; ++i) {
    ASSERT_TRUE(t.Insert(&m.core(0), Key::FromUint64(i), i).ok());
  }
  EXPECT_GE(t.height(), 3u);
  EXPECT_LE(t.height(), 8u);
}

TEST(BTreeTest, LargeNodesMakeShallowTrees) {
  mcsim::MachineSim m(NoTlb());
  BTree big(8192, 8, IndexKind::kBTree8K);
  BTree small(256, 8, IndexKind::kBTreeCc);
  for (uint64_t i = 0; i < 50000; ++i) {
    ASSERT_TRUE(big.Insert(&m.core(0), Key::FromUint64(i), i).ok());
    ASSERT_TRUE(small.Insert(&m.core(0), Key::FromUint64(i), i).ok());
  }
  EXPECT_LT(big.height(), small.height());
}

TEST(BTreeTest, ReverseInsertionOrderWorks) {
  mcsim::MachineSim m(NoTlb());
  BTree t(512, 8, IndexKind::kBTreeCacheline);
  for (uint64_t i = 5000; i > 0; --i) {
    ASSERT_TRUE(t.Insert(&m.core(0), Key::FromUint64(i), i).ok());
  }
  std::vector<uint64_t> got;
  t.Scan(&m.core(0), Key::FromUint64(0), 10, &got);
  ASSERT_EQ(got.size(), 10u);
  EXPECT_EQ(got.front(), 1u);
}

// ---------------------------------------------------------------------------
// B-tree compare stream: a fixed random sequence of inserts, removes,
// lookups (hits and misses) and scans, whose results and simulated
// instruction and data-access counts are pinned. A rewrite of the key
// comparison must leave all three unchanged. Miss counts follow host
// addresses and are not pinned.
// ---------------------------------------------------------------------------

struct CompareStreamCase {
  IndexKind kind;
  uint32_t key_bytes;
  uint64_t results_digest;
  uint64_t instructions;
  uint64_t data_accesses;
};

// Keys of id < 4000. 8-byte keys are spread over all eight bytes.
// 50-byte keys come in two families: even ids differ only in the first
// 8-byte chunk (the rest is zero, so an 8-byte probe of that chunk
// matches), odd ids share a 48-byte prefix and differ only in the
// 2-byte tail chunk.
std::string StreamKeyBytes(uint32_t key_bytes, uint64_t id) {
  std::string bytes(key_bytes, '\0');
  if (key_bytes == 8 || id % 2 == 0) {
    const Key k = Key::FromUint64((id / 2 + 1) * 0x9e3779b97f4a7c15ULL);
    std::memcpy(bytes.data(), k.data(), 8);
  } else {
    std::memset(bytes.data(), 0xa5, key_bytes - 2);
    bytes[key_bytes - 2] = static_cast<char>((id / 2) >> 8);
    bytes[key_bytes - 1] = static_cast<char>(id / 2);
  }
  return bytes;
}

class BTreeCompareStreamTest
    : public ::testing::TestWithParam<CompareStreamCase> {};

TEST_P(BTreeCompareStreamTest, ResultsAndCountersArePinned) {
  const CompareStreamCase& c = GetParam();
  mcsim::MachineSim m(NoTlb());
  mcsim::CoreSim* core = &m.core(0);
  auto index = CreateIndex(c.kind, c.key_bytes);
  std::map<std::string, uint64_t> oracle;
  uint64_t digest = 1469598103934665603ULL;
  auto mix = [&digest](uint64_t v) {
    digest = (digest ^ v) * 0x100000001b3ULL;
  };
  auto key_of = [&c](const std::string& bytes) {
    return Key::FromBytes(bytes.data(), c.key_bytes);
  };
  Rng rng(2024);
  for (int step = 0; step < 6000; ++step) {
    const uint64_t id = rng.Uniform(4000);
    const std::string bytes = StreamKeyBytes(c.key_bytes, id);
    const uint64_t op = rng.Uniform(10);
    if (op < 4) {
      const bool ok = index->Insert(core, key_of(bytes), id).ok();
      ASSERT_EQ(ok, oracle.emplace(bytes, id).second) << step;
      mix(ok);
    } else if (op == 4) {
      const bool removed = index->Remove(core, key_of(bytes));
      ASSERT_EQ(removed, oracle.erase(bytes) > 0) << step;
      mix(removed);
    } else if (op < 9) {
      // Wide trees also take an 8-byte probe of the first chunk, which
      // matches a zero-padded slot exactly.
      const bool short_probe = c.key_bytes > 8 && op == 8;
      const Key probe = short_probe ? Key::FromBytes(bytes.data(), 8)
                                    : key_of(bytes);
      const std::string padded =
          short_probe ? bytes.substr(0, 8) + std::string(c.key_bytes - 8,
                                                         '\0')
                      : bytes;
      uint64_t value = 0;
      const bool found = index->Lookup(core, probe, &value);
      const auto it = oracle.find(padded);
      ASSERT_EQ(found, it != oracle.end()) << step;
      if (found) {
        ASSERT_EQ(value, it->second) << step;
      }
      mix(found);
      mix(value);
    } else {
      const uint64_t limit = 1 + rng.Uniform(30);
      std::vector<uint64_t> got;
      index->Scan(core, key_of(bytes), limit, &got);
      std::vector<uint64_t> want;
      for (auto it = oracle.lower_bound(bytes);
           it != oracle.end() && want.size() < limit; ++it) {
        want.push_back(it->second);
      }
      ASSERT_EQ(got, want) << step;
      for (uint64_t v : got) mix(v);
    }
  }
  const mcsim::CoreCounters& counters = core->counters();
  EXPECT_EQ(digest, c.results_digest) << std::hex << digest;
  EXPECT_EQ(counters.instructions, c.instructions);
  EXPECT_EQ(counters.data_accesses, c.data_accesses);
}

std::string CompareStreamName(
    const ::testing::TestParamInfo<CompareStreamCase>& info) {
  std::string name = std::string(IndexKindName(info.param.kind)) + "_" +
                     std::to_string(info.param.key_bytes) + "b";
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

// The results do not depend on node size, only on key width.
constexpr uint64_t kDigest8 = 0x520928f490da363dULL;
constexpr uint64_t kDigest50 = 0x3a7386ebdbac495fULL;

INSTANTIATE_TEST_SUITE_P(
    AllBTrees, BTreeCompareStreamTest,
    ::testing::Values(
        CompareStreamCase{IndexKind::kBTree8K, 8, kDigest8, 816958,
                          76833},
        CompareStreamCase{IndexKind::kBTreeCacheline, 8, kDigest8, 882616,
                          84221},
        CompareStreamCase{IndexKind::kBTreeCc, 8, kDigest8, 837048,
                          78952},
        CompareStreamCase{IndexKind::kBTree8K, 50, kDigest50, 1729612,
                          110610},
        CompareStreamCase{IndexKind::kBTreeCacheline, 50, kDigest50, 1899990,
                          125317},
        CompareStreamCase{IndexKind::kBTreeCc, 50, kDigest50, 1761806,
                          115524}),
    CompareStreamName);

TEST(ArtTest, DensePrefixesCompress) {
  mcsim::MachineSim m(NoTlb());
  Art art(8);
  // Dense low keys share a long common prefix (high bytes are zero).
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(art.Insert(&m.core(0), Key::FromUint64(i), i).ok());
  }
  uint64_t v;
  ASSERT_TRUE(art.Lookup(&m.core(0), Key::FromUint64(999), &v));
  EXPECT_EQ(v, 999u);
}

TEST(ArtTest, SparseKeysSplitPrefixes) {
  mcsim::MachineSim m(NoTlb());
  Art art(8);
  Rng rng(5);
  std::map<uint64_t, uint64_t> oracle;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t k = rng.Next();
    if (art.Insert(&m.core(0), Key::FromUint64(k), i).ok()) {
      oracle[k] = i;
    }
  }
  for (const auto& [k, val] : oracle) {
    uint64_t v;
    ASSERT_TRUE(art.Lookup(&m.core(0), Key::FromUint64(k), &v));
    ASSERT_EQ(v, val);
  }
}

TEST(ArtTest, NodeGrowthThroughAllArities) {
  mcsim::MachineSim m(NoTlb());
  Art art(8);
  // 256 children under one byte position forces 4 -> 16 -> 48 -> 256.
  for (uint64_t b = 0; b < 256; ++b) {
    ASSERT_TRUE(art.Insert(&m.core(0), Key::FromUint64(b << 8), b).ok());
  }
  uint64_t v;
  for (uint64_t b = 0; b < 256; ++b) {
    ASSERT_TRUE(art.Lookup(&m.core(0), Key::FromUint64(b << 8), &v));
    ASSERT_EQ(v, b);
  }
}

TEST(HashIndexTest, DirectoryGrowsWithLoad) {
  mcsim::MachineSim m(NoTlb());
  HashIndex h(8, 16);
  const uint64_t buckets_before = h.num_buckets();
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(h.Insert(&m.core(0), Key::FromUint64(i), i).ok());
  }
  EXPECT_GT(h.num_buckets(), buckets_before);
  uint64_t v;
  for (uint64_t i = 0; i < 1000; ++i) {
    ASSERT_TRUE(h.Lookup(&m.core(0), Key::FromUint64(i), &v));
    ASSERT_EQ(v, i);
  }
}

TEST(HashIndexTest, ScanReturnsNothing) {
  mcsim::MachineSim m(NoTlb());
  HashIndex h(8);
  h.Insert(&m.core(0), Key::FromUint64(1), 1);
  std::vector<uint64_t> out;
  EXPECT_EQ(h.Scan(&m.core(0), Key::FromUint64(0), 10, &out), 0u);
  EXPECT_FALSE(h.ordered());
}

TEST(IndexDataLocalityTest, BTreeTouchesMoreLinesPerProbeThanHash) {
  // The paper's Section 6.1 mechanism: B-trees traverse the whole index
  // per probe; the hash index goes straight to one bucket.
  mcsim::MachineSim mb(NoTlb()), mh(NoTlb());
  BTree btree(8192, 8, IndexKind::kBTree8K);
  HashIndex hash(8);
  for (uint64_t i = 0; i < 100000; ++i) {
    ASSERT_TRUE(btree.Insert(&mb.core(0), Key::FromUint64(i), i).ok());
    ASSERT_TRUE(hash.Insert(&mh.core(0), Key::FromUint64(i), i).ok());
  }
  const uint64_t b0 = mb.core(0).counters().data_accesses;
  const uint64_t h0 = mh.core(0).counters().data_accesses;
  Rng rng(3);
  uint64_t v;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t k = rng.Uniform(100000);
    btree.Lookup(&mb.core(0), Key::FromUint64(k), &v);
    hash.Lookup(&mh.core(0), Key::FromUint64(k), &v);
  }
  const uint64_t btree_lines = mb.core(0).counters().data_accesses - b0;
  const uint64_t hash_lines = mh.core(0).counters().data_accesses - h0;
  EXPECT_GT(btree_lines, 2 * hash_lines);
}

}  // namespace
}  // namespace imoltp::index
