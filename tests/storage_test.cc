#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"
#include "mcsim/trace_sink.h"
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
        file_("t", &pool_, 1, TwoLongColumns()) {}

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
  ASSERT_TRUE(file_.ReadRow(core_, rid, out.data()));
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
    ASSERT_TRUE(file_.ReadRow(core_, rids[i], out.data()));
    ASSERT_EQ(file_.schema().GetLong(out.data(), 0), i);
  }
}

TEST_F(DiskHeapFileTest, WriteColumnInPlace) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  const int64_t v = 999;
  ASSERT_TRUE(file_.WriteColumn(core_, rid, 1, &v));
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(file_.ReadRow(core_, rid, out.data()));
  EXPECT_EQ(file_.schema().GetLong(out.data(), 1), 999);
  EXPECT_EQ(file_.schema().GetLong(out.data(), 0), 1);  // untouched
}

TEST_F(DiskHeapFileTest, DeleteThenReadFails) {
  const RowId rid = file_.Append(core_, Row(1, 2).data());
  ASSERT_TRUE(file_.Delete(core_, rid));
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(file_.ReadRow(core_, rid, out.data()));
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
// Table conformance: heap, sparse and the disk heap file
// ---------------------------------------------------------------------------

/// Records the data addresses the cores read.
class ReadRecorder final : public mcsim::TraceSink {
 public:
  void OnExecuteRegion(int, const mcsim::CodeRegion&, uint64_t) override {}
  void OnRead(int, uint64_t addr, uint32_t) override {
    reads.push_back(addr);
  }
  void OnWrite(int, uint64_t, uint32_t) override {}
  void OnRetire(int, uint64_t) override {}
  void OnMispredict(int, uint64_t) override {}
  void OnBeginTransaction(int) override {}
  void OnSetModule(int, mcsim::ModuleId) override {}
  void OnWindowMark(bool) override {}

  std::vector<uint64_t> reads;
};

/// The address ReadRow traces for the row's bytes: every store reads
/// them last (the disk file's page-table probe and header come first).
uint64_t TracedRowAddress(mcsim::MachineSim* machine, Table* t, RowId row) {
  ReadRecorder recorder;
  machine->SetTraceSink(&recorder);
  std::vector<uint8_t> out(t->schema().row_bytes());
  EXPECT_TRUE(t->ReadRow(&machine->core(0), row, out.data()));
  machine->SetTraceSink(nullptr);
  return recorder.reads.empty() ? 0 : recorder.reads.back();
}

enum class Store { kHeap, kSparse, kDisk };

// The in-memory stores print as the sparse flag their test ids have
// always carried ("GetParam() = false" is the heap table).
void PrintTo(Store store, std::ostream* os) {
  *os << (store == Store::kHeap     ? "false"
          : store == Store::kSparse ? "true"
                                    : "disk");
}

std::string StoreName(const ::testing::TestParamInfo<Store>& info) {
  switch (info.param) {
    case Store::kHeap:
      return "Heap";
    case Store::kSparse:
      return "Sparse";
    case Store::kDisk:
      return "Disk";
  }
  return "";
}

class TableModeTest : public ::testing::TestWithParam<Store> {
 protected:
  TableModeTest()
      : machine_(NoTlb()), core_(&machine_.core(0)), pool_(256, 8192) {}

  /// A populated, clean table: `rows` generated rows with ids shifted
  /// by `row_offset`. The disk file appends them the way population
  /// does.
  std::unique_ptr<Table> Make(uint64_t rows, uint64_t row_offset = 0) {
    std::unique_ptr<Table> t;
    if (GetParam() == Store::kDisk) {
      t = std::make_unique<DiskHeapFile>("t", &pool_, 1, TwoLongColumns());
      std::vector<uint8_t> row(t->schema().row_bytes());
      for (RowId r = 0; r < rows; ++r) {
        DefaultRowGenerator(t->schema(), row_offset + r, 0x1234, row.data());
        EXPECT_NE(t->Append(core_, row.data()), kInvalidRow);
      }
    } else {
      TableOptions opts;
      opts.row_stride = 64;
      opts.generator_row_offset = row_offset;
      // Sparse mode: force by shrinking the resident budget.
      if (GetParam() == Store::kSparse) opts.max_resident_bytes = 1;
      t = CreateTable("t", TwoLongColumns(), rows, opts);
    }
    t->MarkClean();
    return t;
  }

  /// Whether `row` lies on one of the table's dirty pages.
  bool OnDirtyPage(Table* t, RowId row) {
    for (uint64_t page : t->DirtyPages()) {
      for (RowId r : t->PageRows(core_, page)) {
        if (r == row) return true;
      }
    }
    return false;
  }

  std::vector<uint8_t> Row(const Table& t, int64_t key, int64_t value) {
    std::vector<uint8_t> row(t.schema().row_bytes());
    t.schema().SetLong(row.data(), 0, key);
    t.schema().SetLong(row.data(), 1, value);
    return row;
  }

  mcsim::MachineSim machine_;
  mcsim::CoreSim* core_;
  BufferPool pool_;
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
  EXPECT_TRUE(t->WriteColumn(core_, 5, 1, &v));
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 5, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 1), -42);
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 5);
}

TEST_P(TableModeTest, WriteColumnOfAbsentRowFails) {
  auto t = Make(10);
  ASSERT_TRUE(t->Delete(core_, 3));
  const int64_t v = 1;
  EXPECT_FALSE(t->WriteColumn(core_, 3, 1, &v));
  EXPECT_FALSE(t->WriteColumn(core_, 10, 1, &v));
}

TEST_P(TableModeTest, WriteRowOverwritesEveryColumn) {
  auto t = Make(10);
  t->WriteRow(core_, 7, Row(*t, 70, 700).data());
  std::vector<uint8_t> out(16);
  ASSERT_TRUE(t->ReadRow(core_, 7, out.data()));
  EXPECT_EQ(t->schema().GetLong(out.data(), 0), 70);
  EXPECT_EQ(t->schema().GetLong(out.data(), 1), 700);
}

TEST_P(TableModeTest, AppendExtendsTable) {
  auto t = Make(10);
  const RowId rid = t->Append(core_, Row(*t, 777, 888).data());
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

TEST_P(TableModeTest, RestoreRowPlacesPresentAndAbsentRows) {
  auto t = Make(10);
  std::vector<uint8_t> out(16);
  t->RestoreRow(core_, 4, Row(*t, 4, 44).data(), /*present=*/false);
  EXPECT_FALSE(t->ReadRow(core_, 4, out.data()));
  t->RestoreRow(core_, 4, Row(*t, 4, 44).data(), /*present=*/true);
  ASSERT_TRUE(t->ReadRow(core_, 4, out.data()));
  EXPECT_EQ(t->schema().GetLong(out.data(), 1), 44);
  // Past the end: the row lands exactly there, the gap stays absent.
  t->RestoreRow(core_, 12, Row(*t, 12, 120).data(), /*present=*/true);
  ASSERT_TRUE(t->ReadRow(core_, 12, out.data()));
  EXPECT_EQ(t->schema().GetLong(out.data(), 1), 120);
  EXPECT_FALSE(t->ReadRow(core_, 10, out.data()));
  EXPECT_FALSE(t->ReadRow(core_, 11, out.data()));
}

TEST_P(TableModeTest, DirtyPagesHoldEveryMutatedRow) {
  auto t = Make(100);
  EXPECT_TRUE(t->DirtyPages().empty());  // population is clean
  const int64_t v = 9;
  ASSERT_TRUE(t->WriteColumn(core_, 70, 1, &v));
  EXPECT_EQ(t->DirtyPages().size(), 1u);
  EXPECT_TRUE(OnDirtyPage(t.get(), 70));
  ASSERT_TRUE(t->Delete(core_, 5));
  const RowId rid = t->Append(core_, Row(*t, 1, 1).data());
  t->RestoreRow(core_, 40, Row(*t, 40, 4).data(), /*present=*/true);
  EXPECT_TRUE(OnDirtyPage(t.get(), 70));
  EXPECT_TRUE(OnDirtyPage(t.get(), 5));
  EXPECT_TRUE(OnDirtyPage(t.get(), rid));
  EXPECT_TRUE(OnDirtyPage(t.get(), 40));
}

TEST_P(TableModeTest, PagesEnumerateEveryRowOnce) {
  // More rows than one 8 KB slotted page or eight logical pages hold.
  constexpr uint64_t kRows = 500;
  auto t = Make(kRows);
  std::vector<int64_t> keys;
  std::vector<uint8_t> out(16);
  for (uint64_t page = 0; keys.size() < kRows && page < kRows; ++page) {
    for (RowId r : t->PageRows(core_, page)) {
      ASSERT_TRUE(t->ReadRow(core_, r, out.data())) << "row " << r;
      keys.push_back(t->schema().GetLong(out.data(), 0));
    }
  }
  ASSERT_EQ(keys.size(), kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i));
  }
}

TEST_P(TableModeTest, RowAddressesAreStriddenAndDistinct) {
  auto t = Make(100);
  // Heap and sparse rows sit one 64-byte stride apart; a slotted page
  // packs its records downward from the end of the page.
  const int64_t stride =
      GetParam() == Store::kDisk ? -int64_t{16} : int64_t{64};
  auto addr = [&](RowId r) {
    return static_cast<int64_t>(TracedRowAddress(&machine_, t.get(), r));
  };
  EXPECT_EQ(addr(1) - addr(0), stride);
  EXPECT_EQ(addr(99) - addr(98), stride);
}

TEST_P(TableModeTest, OutOfRangeRowFails) {
  auto t = Make(10);
  std::vector<uint8_t> out(16);
  EXPECT_FALSE(t->ReadRow(core_, 10, out.data()));
}

TEST_P(TableModeTest, GeneratorRowOffsetShiftsContent) {
  auto t = Make(10, /*row_offset=*/500);
  std::vector<uint8_t> row(16);
  ASSERT_TRUE(t->ReadRow(core_, 0, row.data()));
  EXPECT_EQ(t->schema().GetLong(row.data(), 0), 500);
}

INSTANTIATE_TEST_SUITE_P(HeapAndSparse, TableModeTest,
                         ::testing::Values(Store::kHeap, Store::kSparse),
                         StoreName);
INSTANTIATE_TEST_SUITE_P(Disk, TableModeTest,
                         ::testing::Values(Store::kDisk), StoreName);

TEST(TableFactoryTest, PicksSparseAboveResidentBudget) {
  TableOptions opts;
  opts.row_stride = 1 << 20;  // 1MB per row
  opts.max_resident_bytes = 4 << 20;
  auto t = CreateTable("big", TwoLongColumns(), 1000, opts);
  // A sparse table spreads rows over the synthetic address range
  // [2^44, 2^46); real heap mappings live above it on x86-64 Linux.
  mcsim::MachineSim machine(NoTlb());
  const uint64_t addr = TracedRowAddress(&machine, t.get(), 0);
  EXPECT_GE(addr, 1ULL << 44);
  EXPECT_LT(addr, 1ULL << 46);
}

TEST(TableFactoryTest, PicksHeapWithinBudget) {
  TableOptions opts;
  opts.row_stride = 64;
  auto t = CreateTable("small", TwoLongColumns(), 1000, opts);
  mcsim::MachineSim machine(NoTlb());
  const uint64_t addr = TracedRowAddress(&machine, t.get(), 0);
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

/// Resident bytes of this process, or -1 without /proc/self/statm.
int64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  if (n != 2) return -1;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

TEST(TableTest, SegmentPagesNoRowReachesStayNonResident) {
  if (ResidentBytes() < 0) GTEST_SKIP() << "no /proc/self/statm";
  // A 4096-row segment of 2 KiB slots is 8 MiB; one row touches one
  // page of it.
  TableOptions opts;
  opts.row_stride = 2048;
  const int64_t before = ResidentBytes();
  auto t = CreateTable("one", TwoLongColumns(), 1, opts);
  const int64_t grown = ResidentBytes() - before;
  EXPECT_LT(grown, 64 << 10) << "resident bytes grew by " << grown;

  // The row written at creation and one appended later read back.
  mcsim::MachineSim machine(NoTlb());
  mcsim::CoreSim* core = &machine.core(0);
  const Schema& schema = t->schema();
  std::vector<uint8_t> want(schema.row_bytes()), got(schema.row_bytes());
  DefaultRowGenerator(schema, 0, opts.generator_seed, want.data());
  ASSERT_TRUE(t->ReadRow(core, 0, got.data()));
  EXPECT_EQ(got, want);
  schema.SetLong(want.data(), 0, 77);
  ASSERT_EQ(t->Append(core, want.data()), 1u);
  ASSERT_TRUE(t->ReadRow(core, 1, got.data()));
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace imoltp::storage
