#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"
#include "storage/buffer_pool.h"
#include "storage/disk_heap_file.h"
#include "storage/slotted_page.h"
#include "storage/table.h"

namespace imoltp::storage {
namespace {

mcsim::MachineConfig NoTlb() {
  mcsim::MachineConfig c;
  c.model_tlb = false;
  return c;
}

// ---------------------------------------------------------------------------
// SlottedPage
// ---------------------------------------------------------------------------

TEST(SlottedPageTest, InsertAndGetRoundTrip) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t rec[] = {1, 2, 3, 4};
  const uint16_t slot = SlottedPage::Insert(page.data(), rec, 4);
  ASSERT_NE(slot, SlottedPage::kInvalidSlot);
  uint16_t len = 0;
  const uint8_t* got = SlottedPage::Get(page.data(), slot, &len);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(len, 4);
  EXPECT_EQ(0, std::memcmp(got, rec, 4));
}

TEST(SlottedPageTest, RecordsDoNotOverlap) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  uint8_t rec[16];
  for (int i = 0; i < 100; ++i) {
    std::memset(rec, i, sizeof(rec));
    ASSERT_NE(SlottedPage::Insert(page.data(), rec, 16),
              SlottedPage::kInvalidSlot);
  }
  for (uint16_t s = 0; s < 100; ++s) {
    const uint8_t* got = SlottedPage::Get(page.data(), s);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got[0], static_cast<uint8_t>(s));
    EXPECT_EQ(got[15], static_cast<uint8_t>(s));
  }
}

TEST(SlottedPageTest, DeleteFreesSlotAndGetReturnsNull) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t rec[8] = {42};
  const uint16_t slot = SlottedPage::Insert(page.data(), rec, 8);
  EXPECT_TRUE(SlottedPage::Delete(page.data(), slot));
  EXPECT_EQ(SlottedPage::Get(page.data(), slot), nullptr);
  EXPECT_FALSE(SlottedPage::Delete(page.data(), slot));  // double delete
}

TEST(SlottedPageTest, FreedSlotIsReused) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint8_t a[8] = {1};
  const uint8_t b[8] = {2};
  const uint16_t slot = SlottedPage::Insert(page.data(), a, 8);
  SlottedPage::Insert(page.data(), a, 8);
  SlottedPage::Delete(page.data(), slot);
  const uint16_t reused = SlottedPage::Insert(page.data(), b, 8);
  EXPECT_EQ(reused, slot);
  EXPECT_EQ(SlottedPage::Get(page.data(), reused)[0], 2);
  EXPECT_EQ(SlottedPage::NumSlots(page.data()), 2);
}

TEST(SlottedPageTest, FullPageRejectsInsert) {
  std::vector<uint8_t> page(256);
  SlottedPage::Format(page.data(), 256);
  const uint8_t rec[64] = {0};
  int inserted = 0;
  while (SlottedPage::Insert(page.data(), rec, 64) !=
         SlottedPage::kInvalidSlot) {
    ++inserted;
    ASSERT_LT(inserted, 10);
  }
  EXPECT_GE(inserted, 2);
  EXPECT_LT(SlottedPage::FreeBytes(page.data()), 64 + 4);
}

TEST(SlottedPageTest, FreeBytesDecreasesWithInserts) {
  std::vector<uint8_t> page(8192);
  SlottedPage::Format(page.data(), 8192);
  const uint16_t before = SlottedPage::FreeBytes(page.data());
  const uint8_t rec[32] = {0};
  SlottedPage::Insert(page.data(), rec, 32);
  EXPECT_EQ(SlottedPage::FreeBytes(page.data()), before - 32 - 4);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}
  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

TEST_F(BufferPoolTest, NewPageComesUpZeroFilled) {
  BufferPool pool(8, 8192);
  uint8_t* page = pool.FixPage(core_, 1);
  ASSERT_NE(page, nullptr);
  for (int i = 0; i < 8192; ++i) ASSERT_EQ(page[i], 0);
  pool.UnfixPage(core_, 1, false);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, RecycledFrameComesUpZeroFilledForNewPage) {
  BufferPool pool(1, 8192);
  uint8_t* a = pool.FixPage(core_, 1);
  ASSERT_NE(a, nullptr);
  std::memset(a, 0xAB, 8192);
  pool.UnfixPage(core_, 1, /*dirty=*/true);
  // The only frame now holds page 1's bytes; page 2 must not see them.
  uint8_t* b = pool.FixPage(core_, 2);
  ASSERT_EQ(b, a);
  EXPECT_FALSE(pool.IsResident(1));
  for (int i = 0; i < 8192; ++i) ASSERT_EQ(b[i], 0) << "byte " << i;
  pool.UnfixPage(core_, 2, false);
}

// Resident pages of this process, or -1 where /proc/self/statm is absent.
int64_t ResidentPages() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident : -1;
}

TEST_F(BufferPoolTest, ResidentMemoryTracksPagesUsedNotCapacity) {
  const int64_t before = ResidentPages();
  if (before < 0) GTEST_SKIP() << "no /proc/self/statm";
  BufferPool pool(1u << 17, 8192);  // 1 GiB of frames
  for (PageId p = 0; p < 16; ++p) {
    ASSERT_NE(pool.FixPage(core_, p), nullptr);
    pool.UnfixPage(core_, p, /*dirty=*/true);
  }
  const int64_t page_bytes = sysconf(_SC_PAGESIZE);
  const int64_t grown_bytes = (ResidentPages() - before) * page_bytes;
  EXPECT_LT(grown_bytes, 64LL << 20);
}

TEST_F(BufferPoolTest, RefixHits) {
  BufferPool pool(8, 8192);
  pool.UnfixPage(core_, 1, false);  // unknown page: no-op
  pool.FixPage(core_, 7);
  pool.UnfixPage(core_, 7, false);
  pool.FixPage(core_, 7);
  pool.UnfixPage(core_, 7, false);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEviction) {
  BufferPool pool(2, 8192);
  uint8_t* page = pool.FixPage(core_, 100);
  page[0] = 0xAB;
  page[8191] = 0xCD;
  pool.UnfixPage(core_, 100, /*dirty=*/true);
  // Evict by filling the pool with other pages.
  for (PageId p = 0; p < 4; ++p) {
    pool.FixPage(core_, p);
    pool.UnfixPage(core_, p, false);
  }
  EXPECT_FALSE(pool.IsResident(100));
  page = pool.FixPage(core_, 100);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page[0], 0xAB);
  EXPECT_EQ(page[8191], 0xCD);
  EXPECT_GE(pool.stats().dirty_writebacks, 1u);
}

TEST_F(BufferPoolTest, PinnedPagesAreNotEvicted) {
  BufferPool pool(2, 8192);
  uint8_t* a = pool.FixPage(core_, 1);  // stays pinned
  ASSERT_NE(a, nullptr);
  for (PageId p = 10; p < 14; ++p) {
    uint8_t* page = pool.FixPage(core_, p);
    ASSERT_NE(page, nullptr);
    pool.UnfixPage(core_, p, false);
  }
  EXPECT_TRUE(pool.IsResident(1));
}

TEST_F(BufferPoolTest, AllPinnedReturnsNull) {
  BufferPool pool(2, 8192);
  ASSERT_NE(pool.FixPage(core_, 1), nullptr);
  ASSERT_NE(pool.FixPage(core_, 2), nullptr);
  EXPECT_EQ(pool.FixPage(core_, 3), nullptr);
}

TEST_F(BufferPoolTest, ManyPagesChurnKeepsDataIntact) {
  BufferPool pool(16, 8192);
  Rng rng(7);
  std::map<PageId, uint8_t> expected;
  for (int step = 0; step < 2000; ++step) {
    const PageId p = rng.Uniform(64);
    uint8_t* page = pool.FixPage(core_, p);
    ASSERT_NE(page, nullptr);
    auto it = expected.find(p);
    if (it != expected.end()) {
      ASSERT_EQ(page[17], it->second) << "page " << p;
    }
    const uint8_t v = static_cast<uint8_t>(rng.Next());
    page[17] = v;
    expected[p] = v;
    pool.UnfixPage(core_, p, /*dirty=*/true);
  }
  EXPECT_GT(pool.stats().evictions, 0u);
}

TEST_F(BufferPoolTest, TracesPageTableAndFrameTouches) {
  BufferPool pool(8, 8192);
  const uint64_t before = core_->counters().data_accesses;
  pool.FixPage(core_, 5);
  pool.UnfixPage(core_, 5, false);
  EXPECT_GT(core_->counters().data_accesses, before);
}

// ---------------------------------------------------------------------------
// DiskHeapFile
// ---------------------------------------------------------------------------

class DiskHeapFileTest : public ::testing::Test {
 protected:
  DiskHeapFileTest()
      : machine_(NoTlb()),
        core_(&machine_.core(0)),
        pool_(256, 8192),
        file_(&pool_, 1, TwoLongColumns()) {}

  std::vector<uint8_t> Row(int64_t key, int64_t value) {
    std::vector<uint8_t> row(file_.schema().row_bytes());
    file_.schema().SetLong(row.data(), 0, key);
    file_.schema().SetLong(row.data(), 1, value);
    return row;
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
  BufferPool pool_;
  DiskHeapFile file_;
};

TEST_F(DiskHeapFileTest, AppendReadRoundTrip) {
  const RowId rid = file_.Append(core_, Row(7, 49).data());
  ASSERT_NE(rid, kInvalidRow);
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(file_.Read(core_, rid, out.data()));
  EXPECT_EQ(file_.schema().GetLong(out.data(), 0), 7);
  EXPECT_EQ(file_.schema().GetLong(out.data(), 1), 49);
}

TEST_F(DiskHeapFileTest, RowsSpanMultiplePages) {
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 2000; ++i) {
    rids.push_back(file_.Append(core_, Row(i, i * i).data()));
  }
  EXPECT_GT(DiskHeapFile::PageNo(rids.back()), 0u);
  std::vector<uint8_t> out(16);
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(file_.Read(core_, rids[i], out.data()));
    ASSERT_EQ(file_.schema().GetLong(out.data(), 0), i);
  }
}

TEST_F(DiskHeapFileTest, WriteColumnInPlace) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  const int64_t v = 999;
  ASSERT_TRUE(file_.WriteColumn(core_, rid, 1, &v));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(file_.Read(core_, rid, out.data()));
  EXPECT_EQ(file_.schema().GetLong(out.data(), 1), 999);
  EXPECT_EQ(file_.schema().GetLong(out.data(), 0), 1);  // untouched
}

TEST_F(DiskHeapFileTest, DeleteThenReadFails) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  ASSERT_TRUE(file_.Delete(core_, rid));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(file_.Read(core_, rid, out.data()));
  EXPECT_FALSE(file_.Delete(core_, rid));
  EXPECT_EQ(file_.num_rows(), 0u);
}

TEST_F(DiskHeapFileTest, DeletedSpaceIsReused) {
  std::vector<RowId> rids;
  for (int64_t i = 0; i < 300; ++i) {
    rids.push_back(file_.Append(core_, Row(i, i).data()));
  }
  const uint64_t pages_before = pool_.num_pages();
  ASSERT_TRUE(file_.Delete(core_, rids[0]));
  const RowId rid = file_.Append(core_, Row(777, 777).data());
  EXPECT_EQ(rid, rids[0]);  // same page, same slot
  EXPECT_EQ(pool_.num_pages(), pages_before);
}

// ---------------------------------------------------------------------------
// Table (heap + sparse)
// ---------------------------------------------------------------------------

class TableModeTest : public ::testing::TestWithParam<bool> {
 protected:
  TableModeTest() : machine_(NoTlb()), core_(&machine_.core(0)) {}

  std::unique_ptr<Table> Make(uint64_t rows) {
    TableOptions opts;
    opts.row_stride = 64;
    // Sparse mode: force by shrinking the resident budget.
    if (GetParam()) opts.max_resident_bytes = 1;
    return CreateTable("t", TwoLongColumns(), rows, opts);
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
};

TEST_P(TableModeTest, GeneratedRowsAreDeterministic) {
  auto t = Make(1000);
  std::vector<uint8_t> a(16), b(16);
  ASSERT_TRUE(t->ReadRow(core_, 123, a.data()));
  ASSERT_TRUE(t->ReadRow(core_, 123, b.data()));
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), 16));
  EXPECT_EQ(t->schema().GetLong(a.data(), 0), 123);  // key column == id
}

TEST_P(TableModeTest, WriteColumnPersists) {
  auto t = Make(100);
  const int64_t v = -42;
  t->WriteColumn(core_, 5, 1, &v);
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 5, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 1), -42);
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 5);
}

TEST_P(TableModeTest, AppendExtendsTable) {
  auto t = Make(10);
  std::vector<uint8_t> row(16);
  t->schema().SetLong(row.data(), 0, 777);
  t->schema().SetLong(row.data(), 1, 888);
  const RowId rid = t->Append(core_, row.data());
  EXPECT_EQ(rid, 10u);
  EXPECT_EQ(t->num_rows(), 11u);
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(t->ReadRow(core_, rid, out.data()));
  EXPECT_EQ(t->schema().GetLong(out.data(), 0), 777);
}

TEST_P(TableModeTest, DeleteHidesRow) {
  auto t = Make(10);
  ASSERT_TRUE(t->Delete(core_, 3));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(t->ReadRow(core_, 3, out.data()));
  EXPECT_FALSE(t->Delete(core_, 3));
  EXPECT_TRUE(t->ReadRow(core_, 4, out.data()));
}

TEST_P(TableModeTest, RowAddressesAreStriddenAndDistinct) {
  auto t = Make(100);
  EXPECT_EQ(t->RowAddress(1) - t->RowAddress(0), 64u);
  EXPECT_EQ(t->RowAddress(99) - t->RowAddress(98), 64u);
}

TEST_P(TableModeTest, OutOfRangeRowFails) {
  auto t = Make(10);
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(t->ReadRow(core_, 10, out.data()));
}

TEST_P(TableModeTest, GeneratorRowOffsetShiftsContent) {
  TableOptions opts;
  opts.row_stride = 64;
  opts.generator_row_offset = 500;
  if (GetParam()) opts.max_resident_bytes = 1;
  auto t = CreateTable("t", TwoLongColumns(), 10, opts);
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 0, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 500);
}

INSTANTIATE_TEST_SUITE_P(HeapAndSparse, TableModeTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sparse" : "Heap";
                         });

TEST(TableFactoryTest, PicksSparseAboveResidentBudget) {
  TableOptions opts;
  opts.row_stride = 1 << 20;  // 1MB per row
  opts.max_resident_bytes = 4 << 20;
  auto t = CreateTable("big", TwoLongColumns(), 1000, opts);
  // A sparse table spreads rows over the synthetic address range
  // [2^44, 2^46); real heap mappings live above it on x86-64 Linux.
  EXPECT_GE(t->RowAddress(0), 1ULL << 44);
  EXPECT_LT(t->RowAddress(0), 1ULL << 46);
}

TEST(TableFactoryTest, PicksHeapWithinBudget) {
  TableOptions opts;
  opts.row_stride = 64;
  auto t = CreateTable("small", TwoLongColumns(), 1000, opts);
  const uint64_t addr = t->RowAddress(0);
  // Real memory: outside the synthetic sparse range.
  EXPECT_TRUE(addr < (1ULL << 44) || addr >= (1ULL << 46));
}

TEST(TableTest, StringSchemaGeneratesUniqueEarlyDivergingKeys) {
  // String keys carry the row id in their leading bytes (comparisons
  // early-exit) and are unique across rows.
  TableOptions opts;
  auto t = CreateTable("s", TwoStringColumns(), 100, opts);
  std::vector<uint8_t> a(100), b(100);
  mcsim::MachineSim machine(NoTlb());
  ASSERT_TRUE(t->ReadRow(&machine.core(0), 7, a.data()));
  ASSERT_TRUE(t->ReadRow(&machine.core(0), 70, b.data()));
  EXPECT_NE(0, std::memcmp(a.data(), b.data(), kStringBytes));
  EXPECT_EQ(a[0], '7');
  EXPECT_EQ(b[0], '7');
  EXPECT_EQ(b[1], '0');
  EXPECT_EQ(a[1], 'a');
}

}  // namespace
}  // namespace imoltp::storage
