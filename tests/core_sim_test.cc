#include "mcsim/core.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"

namespace imoltp::mcsim {
namespace {

MachineConfig TestConfig() {
  MachineConfig c;
  c.model_tlb = false;  // enabled selectively below
  return c;
}

TEST(CoreSimTest, ColdCodeFetchMissesAllLevels) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  CodeRegion r = m.code_space().Define(kNoModule, 640, 640, 100, 0.0);
  core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().misses.l1i, 10u);
  EXPECT_EQ(core.counters().misses.l2i, 10u);
  EXPECT_EQ(core.counters().misses.llc_i, 10u);
  EXPECT_EQ(core.counters().instructions, 100u);
}

TEST(CoreSimTest, WarmCodeFetchHits) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  CodeRegion r = m.code_space().Define(kNoModule, 640, 640, 100, 0.0);
  core.ExecuteRegion(r);
  const auto before = core.counters().misses;
  core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().misses.l1i, before.l1i);
  EXPECT_EQ(core.counters().instructions, 200u);
}

TEST(CoreSimTest, WindowedRegionTouchesOnlyWindowLines) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  // 100 lines total, 10 touched per execution.
  CodeRegion r = m.code_space().Define(kNoModule, 6400, 640, 50, 0.0);
  core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().code_line_fetches, 10u);
}

TEST(CoreSimTest, WindowedRegionVariesStartAcrossExecutions) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  CodeRegion r = m.code_space().Define(kNoModule, 64 << 10, 1 << 10, 50,
                                       0.0);
  // Many executions of a 16-line window inside a 1024-line range should
  // keep producing cold lines (the windows move around).
  for (int i = 0; i < 50; ++i) core.ExecuteRegion(r);
  EXPECT_GT(core.counters().misses.l1i, 200u);
}

// The L1I is a CodeCache. A fixed stream of fetch windows over several
// modules' regions, with invalidations of present code lines and of
// data lines between them, must give the instruction-side misses per
// level and per module that the same windows give through plain Caches.
TEST(CoreSimTest, CodeFetchMatchesPlainCacheHierarchy) {
  const MachineConfig cfg = TestConfig();
  MachineSim m(cfg);
  CoreSim& core = m.core(0);
  Cache l1i(cfg.l1i);
  Cache l2(cfg.l2);
  Cache llc(cfg.llc);
  std::vector<CodeRegion> regions;
  for (uint32_t i = 0; i < 8; ++i) {
    const ModuleId mod =
        m.modules().Register("mod" + std::to_string(i), i % 2 == 0);
    regions.push_back(m.code_space().Define(
        mod, (13 + i) << 10, (10 + i % 2) << 10, 1000, 0.0));
  }
  regions.push_back(
      m.code_space().Define(kNoModule, 2 << 10, 2 << 10, 100, 0.0));

  CoreCounters want;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const CodeRegion& r = regions[rng.Uniform(regions.size())];
    const uint64_t start =
        r.base_line + rng.Uniform(r.total_lines - r.touched_lines + 1);
    core.ExecuteRegionAt(r, start);
    want.code_line_fetches += r.touched_lines;
    for (uint64_t line = start; line < start + r.touched_lines; ++line) {
      if (l1i.Access(line)) continue;
      ++want.misses.l1i;
      ++want.per_module[r.module].misses.l1i;
      if (l2.Access(line)) continue;
      ++want.misses.l2i;
      ++want.per_module[r.module].misses.l2i;
      if (llc.Access(line)) continue;
      ++want.misses.llc_i;
      ++want.per_module[r.module].misses.llc_i;
    }
    if (i % 16 == 0) {
      const uint64_t line = start + rng.Uniform(r.touched_lines);
      ASSERT_TRUE(core.HoldsLine(line));
      core.InvalidateLine(line);
      l1i.Invalidate(line);
      l2.Invalidate(line);
      ASSERT_FALSE(core.HoldsLine(line));
      core.InvalidateLine(0x5555'0000'0000ULL >> 6);
    }
  }
  const CoreCounters& got = core.counters();
  EXPECT_EQ(got.code_line_fetches, want.code_line_fetches);
  EXPECT_EQ(got.misses.l1i, want.misses.l1i);
  EXPECT_EQ(got.misses.l2i, want.misses.l2i);
  EXPECT_EQ(got.misses.llc_i, want.misses.llc_i);
  EXPECT_GT(want.misses.l1i, 0u);
  EXPECT_LT(want.misses.l1i, want.code_line_fetches);
  for (int mod = 0; mod < m.modules().size(); ++mod) {
    SCOPED_TRACE(mod);
    EXPECT_EQ(got.per_module[mod].misses.l1i,
              want.per_module[mod].misses.l1i);
    EXPECT_EQ(got.per_module[mod].misses.l2i,
              want.per_module[mod].misses.l2i);
    EXPECT_EQ(got.per_module[mod].misses.llc_i,
              want.per_module[mod].misses.llc_i);
  }
}

TEST(CoreSimTest, DataReadWalksHierarchy) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.Read(0x10000, 64);
  EXPECT_EQ(core.counters().misses.l1d, 1u);
  EXPECT_EQ(core.counters().misses.l2d, 1u);
  EXPECT_EQ(core.counters().misses.llc_d, 1u);
  core.Read(0x10000, 64);
  EXPECT_EQ(core.counters().misses.l1d, 1u);  // now resident
}

TEST(CoreSimTest, UnalignedAccessSpanningLinesTouchesBoth) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.Read(0x10000 + 60, 8);  // crosses a 64B boundary
  EXPECT_EQ(core.counters().data_accesses, 2u);
}

TEST(CoreSimTest, RetireAccumulatesBaseCyclesAtDefaultCpi) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.Retire(300);
  EXPECT_EQ(core.counters().instructions, 300u);
  EXPECT_NEAR(core.counters().base_cycles, 100.0, 0.5);  // cpi 1/3
}

TEST(CoreSimTest, RegionCpiOverridesDefault) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  CodeRegion r =
      m.code_space().Define(kNoModule, 64, 64, 1000, 0.0, /*cpi=*/0.9);
  core.ExecuteRegion(r);
  EXPECT_NEAR(core.counters().base_cycles, 900.0, 0.5);
}

TEST(CoreSimTest, MispredictionsAccumulateFractionally) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  // 10 mispredicts per k-instr, 500 instructions per execution:
  // 5 per execution.
  CodeRegion r = m.code_space().Define(kNoModule, 64, 64, 500, 10.0);
  for (int i = 0; i < 10; ++i) core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().mispredictions, 50u);
}

TEST(CoreSimTest, ModuleAttributionFollowsScopes) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  const ModuleId mod = m.modules().Register("test", true);
  {
    ScopedModule scope(&core, mod);
    core.Read(0x20000, 8);
    core.Retire(40);
  }
  core.Retire(10);  // outside the scope
  EXPECT_EQ(core.counters().per_module[mod].instructions, 40u);
  EXPECT_EQ(core.counters().per_module[mod].misses.l1d, 1u);
  EXPECT_EQ(core.counters().per_module[kNoModule].instructions, 10u);
}

TEST(CoreSimTest, RegionExecutionAttributesToItsModule) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  const ModuleId mod = m.modules().Register("parser", false);
  CodeRegion r = m.code_space().Define(mod, 640, 640, 77, 0.0);
  core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().per_module[mod].instructions, 77u);
  EXPECT_EQ(core.counters().per_module[mod].misses.l1i, 10u);
}

TEST(CoreSimTest, DisabledCoreIgnoresAllEvents) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.set_enabled(false);
  core.Read(0x1000, 64);
  core.Retire(100);
  core.BeginTransaction();
  CodeRegion r = m.code_space().Define(kNoModule, 640, 640, 10, 0.0);
  core.ExecuteRegion(r);
  EXPECT_EQ(core.counters().instructions, 0u);
  EXPECT_EQ(core.counters().data_accesses, 0u);
  EXPECT_EQ(core.counters().transactions, 0u);
}

TEST(CoreSimTest, ResetClearsCountersAndCaches) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.Read(0x1000, 8);
  core.Reset();
  EXPECT_EQ(core.counters().data_accesses, 0u);
  core.Read(0x1000, 8);
  EXPECT_EQ(core.counters().misses.l1d, 1u);  // cold again
}

TEST(CoreSimTest, TlbMissTriggersPageWalkAccess) {
  MachineConfig cfg;
  cfg.model_tlb = true;
  MachineSim m(cfg);
  CoreSim& core = m.core(0);
  core.Read(0x4000000, 8);
  // One logical access plus the walker's PTE line access.
  EXPECT_EQ(core.counters().data_accesses, 2u);
  EXPECT_EQ(core.counters().tlb_misses, 1u);
  // Same page: TLB now hits, single access.
  core.Read(0x4000040, 8);
  EXPECT_EQ(core.counters().data_accesses, 3u);
  EXPECT_EQ(core.counters().tlb_misses, 1u);
}

TEST(CoreSimTest, TlbCapacityMissesOnHugeWorkingSet) {
  MachineConfig cfg;
  cfg.model_tlb = true;
  MachineSim m(cfg);
  CoreSim& core = m.core(0);
  // Touch 4096 distinct pages, twice: far beyond 64+512 TLB entries.
  for (int pass = 0; pass < 2; ++pass) {
    for (uint64_t p = 0; p < 4096; ++p) {
      core.Read((1ULL << 32) + p * 4096, 8);
    }
  }
  EXPECT_GT(core.counters().tlb_misses, 4096u);
}

TEST(CoreSimTest, TransactionsCount) {
  MachineSim m(TestConfig());
  CoreSim& core = m.core(0);
  core.BeginTransaction();
  core.BeginTransaction();
  EXPECT_EQ(core.counters().transactions, 2u);
}

}  // namespace
}  // namespace imoltp::mcsim
