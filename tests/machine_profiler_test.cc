#include <gtest/gtest.h>

#include "mcsim/machine.h"
#include "mcsim/profiler.h"

namespace imoltp::mcsim {
namespace {

MachineConfig NoTlb(int cores = 1) {
  MachineConfig c;
  c.model_tlb = false;
  c.num_cores = cores;
  return c;
}

TEST(MachineSimTest, ConfiguredCoreCount) {
  MachineSim m(NoTlb(4));
  EXPECT_EQ(m.num_cores(), 4);
}

TEST(MachineSimTest, WriteInvalidatesSiblingCopies) {
  MachineSim m(NoTlb(2));
  m.core(0).Read(0x1000, 8);
  ASSERT_TRUE(m.core(0).HoldsLine(0x1000 >> 6));
  m.core(1).Write(0x1000, 8);
  EXPECT_FALSE(m.core(0).HoldsLine(0x1000 >> 6));
  // Core 0 re-reads: private miss again (coherence miss).
  const uint64_t before = m.core(0).counters().misses.l1d;
  m.core(0).Read(0x1000, 8);
  EXPECT_EQ(m.core(0).counters().misses.l1d, before + 1);
}

TEST(MachineSimTest, SingleCoreSkipsInvalidationPath) {
  MachineSim m(NoTlb(1));
  m.core(0).Read(0x1000, 8);
  m.core(0).Write(0x1000, 8);
  EXPECT_TRUE(m.core(0).HoldsLine(0x1000 >> 6));
}

TEST(MachineSimTest, SharedLlcServesSecondCore) {
  MachineSim m(NoTlb(2));
  m.core(0).Read(0x2000, 8);
  m.core(1).Read(0x2000, 8);
  // Core 1 misses privately but hits the shared LLC.
  EXPECT_EQ(m.core(1).counters().misses.l1d, 1u);
  EXPECT_EQ(m.core(1).counters().misses.llc_d, 0u);
}

TEST(MachineSimTest, TotalCountersSumAcrossCores) {
  MachineSim m(NoTlb(2));
  m.core(0).Retire(10);
  m.core(1).Retire(32);
  EXPECT_EQ(m.TotalCounters().instructions, 42u);
}

TEST(MachineSimTest, ResetClearsEverything) {
  MachineSim m(NoTlb(2));
  m.core(0).Read(0x1000, 8);
  m.Reset();
  EXPECT_EQ(m.TotalCounters().data_accesses, 0u);
  EXPECT_EQ(m.llc().misses(), 0u);
}

TEST(ProfilerTest, WindowReportsOnlyDeltas) {
  MachineSim m(NoTlb(1));
  m.core(0).Retire(1000);  // before the window
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(600);
  m.core(0).BeginTransaction();
  WindowReport r = p.EndWindow();
  EXPECT_DOUBLE_EQ(r.instructions, 600.0);
  EXPECT_DOUBLE_EQ(r.transactions, 1.0);
}

TEST(ProfilerTest, ReportedStallsEqualMissesTimesPenalty) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(1000);
  for (int i = 0; i < 10; ++i) {
    m.core(0).Read(0x100000 + i * 4096, 8);  // 10 cold lines
  }
  m.core(0).BeginTransaction();
  WindowReport r = p.EndWindow();
  const CycleModelParams& params = m.config().cycle;
  EXPECT_DOUBLE_EQ(r.stalls_per_txn.stalls[3],
                   10 * params.l1_miss_penalty);
  EXPECT_DOUBLE_EQ(r.stalls_per_txn.stalls[5],
                   10 * params.llc_miss_penalty);
  // Per-k-instruction scaling.
  EXPECT_DOUBLE_EQ(r.stalls_per_kinstr.stalls[5],
                   10 * params.llc_miss_penalty);  // exactly 1k instr
}

TEST(ProfilerTest, PerWorkerAveraging) {
  MachineSim m(NoTlb(2));
  Profiler p(&m);
  p.BeginWindow({0, 1});
  m.core(0).Retire(100);
  m.core(1).Retire(300);
  WindowReport r = p.EndWindow();
  EXPECT_EQ(r.num_workers, 2);
  EXPECT_DOUBLE_EQ(r.instructions, 200.0);
}

TEST(ProfilerTest, ModuleBreakdownFractionsSumToOne) {
  MachineSim m(NoTlb(1));
  const ModuleId a = m.modules().Register("a", true);
  const ModuleId b = m.modules().Register("b", false);
  Profiler p(&m);
  p.BeginWindow({0});
  {
    ScopedModule s(&m.core(0), a);
    m.core(0).Retire(1000);
  }
  {
    ScopedModule s(&m.core(0), b);
    m.core(0).Retire(3000);
  }
  WindowReport r = p.EndWindow();
  double sum = 0;
  for (const auto& share : r.module_breakdown) sum += share.fraction;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_NEAR(r.engine_cycle_fraction, 0.25, 1e-9);
}

TEST(ProfilerTest, IpcMatchesCycleModel) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(900);  // no misses: cycles = 900 * base_cpi = 300
  WindowReport r = p.EndWindow();
  EXPECT_NEAR(r.ipc, 3.0, 1e-9);  // the paper's no-miss loop IPC
}

TEST(CycleModelTest, FormulaComposition) {
  CycleModelParams p;
  ModuleCounters c;
  c.instructions = 3000;
  c.base_cycles = 1000;
  c.misses.l1i = 10;
  c.misses.llc_d = 2;
  c.mispredictions = 4;
  c.tlb_misses = 3;
  const double amp = EffectiveLlcAmp(2, 3000, p);
  const double expected = 1000 +
                          10 * p.l1_miss_penalty *
                              p.frontend_amplification +
                          2 * p.llc_miss_penalty * amp +
                          4 * p.mispredict_penalty +
                          3 * p.tlb_walk_cycles;
  EXPECT_NEAR(SimulatedCycles(c, p), expected, 1e-9);
}

TEST(CycleModelTest, LlcAmplificationRampsWithMissDensity) {
  CycleModelParams p;
  // Sparse misses cost near the raw penalty; dense chains saturate.
  EXPECT_DOUBLE_EQ(EffectiveLlcAmp(0, 100000, p), p.llc_amp_floor);
  EXPECT_DOUBLE_EQ(EffectiveLlcAmp(1, 100000, p), p.llc_amp_floor);
  EXPECT_DOUBLE_EQ(EffectiveLlcAmp(300, 100000, p), p.data_amp_llc);
  const double mid = EffectiveLlcAmp(140, 100000, p);  // 1.4 per kI
  EXPECT_GT(mid, p.llc_amp_floor);
  EXPECT_LT(mid, p.data_amp_llc);
}

TEST(CycleModelTest, Table1PenaltiesAreDefaults) {
  CycleModelParams p;
  EXPECT_DOUBLE_EQ(p.l1_miss_penalty, 8.0);
  EXPECT_DOUBLE_EQ(p.l2_miss_penalty, 19.0);
  EXPECT_DOUBLE_EQ(p.llc_miss_penalty, 167.0);
}

TEST(ProfilerDeathTest, EndWindowWithoutBeginAborts) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  EXPECT_DEATH(p.EndWindow(), "EndWindow without a matching BeginWindow");
}

TEST(ProfilerDeathTest, DoubleBeginWindowAborts) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  EXPECT_DEATH(p.BeginWindow({0}), "already open");
}

TEST(ProfilerDeathTest, EmptyWorkerCoresAborts) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  EXPECT_DEATH(p.BeginWindow({}), "worker_cores");
}

TEST(ProfilerDeathTest, OutOfRangeCoreAborts) {
  MachineSim m(NoTlb(2));
  Profiler p(&m);
  EXPECT_DEATH(p.BeginWindow({0, 7}), "out of range");
}

TEST(ProfilerDeathTest, NegativeCoreAborts) {
  MachineSim m(NoTlb(2));
  Profiler p(&m);
  EXPECT_DEATH(p.BeginWindow({-1}), "out of range");
}

TEST(ProfilerDeathTest, SecondEndWindowAborts) {
  // A closed window must be re-opened before it can close again — a
  // stray second EndWindow would report deltas against stale
  // snapshots.
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(100);
  p.EndWindow();
  EXPECT_DEATH(p.EndWindow(), "EndWindow without a matching BeginWindow");
}

TEST(ProfilerTest, WindowReopensCleanlyAfterClose) {
  // Begin/End is reusable: the second window reports only its own
  // retirements, not the first window's.
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  p.BeginWindow({0});
  m.core(0).Retire(900);
  p.EndWindow();
  p.BeginWindow({0});
  m.core(0).Retire(300);
  WindowReport r = p.EndWindow();
  EXPECT_DOUBLE_EQ(r.instructions, 300.0);
}

TEST(ProfilerTest, WindowOpenTracksState) {
  MachineSim m(NoTlb(1));
  Profiler p(&m);
  EXPECT_FALSE(p.window_open());
  p.BeginWindow({0});
  EXPECT_TRUE(p.window_open());
  p.EndWindow();
  EXPECT_FALSE(p.window_open());
}

TEST(ModuleRegistryTest, RegistrationPastCapacityIsClamped) {
  MachineSim m(NoTlb(1));
  ModuleRegistry& reg = m.modules();
  // The machine pre-registers some modules; fill to the cap.
  std::vector<ModuleId> ids;
  while (reg.size() < kMaxModules) {
    // Appended, not "m" + ...: GCC 12 at -O3 flags that with a false
    // -Wrestrict.
    std::string name = "m";
    name += std::to_string(reg.size());
    ids.push_back(reg.Register(name, false));
  }
  EXPECT_EQ(reg.size(), kMaxModules);
  // One past the cap: rejected, not out-of-bounds.
  const ModuleId overflow = reg.Register("one-too-many", false);
  EXPECT_EQ(overflow, kNoModule);
  EXPECT_EQ(reg.size(), kMaxModules);
  // Attribution to a clamped module is a safe no-op.
  {
    ScopedModule s(&m.core(0), overflow);
    m.core(0).Retire(100);
  }
  EXPECT_EQ(m.core(0).counters().instructions, 100u);
}

TEST(MachineConfigTest, Table1Geometry) {
  MachineConfig c;
  EXPECT_EQ(c.l1i.size_bytes, 32u * 1024);
  EXPECT_EQ(c.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(c.l2.size_bytes, 256u * 1024);
  EXPECT_EQ(c.llc.size_bytes, 20u * 1024 * 1024);
  EXPECT_EQ(c.issue_width, 4);
  EXPECT_DOUBLE_EQ(c.clock_ghz, 2.0);
}

}  // namespace
}  // namespace imoltp::mcsim
