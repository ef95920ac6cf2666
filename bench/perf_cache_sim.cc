// Library micro-benchmarks (google-benchmark): raw throughput of the
// simulation substrate itself. These measure the REPRODUCTION's code,
// not the paper's systems — they bound how fast the figure benches run.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "mcsim/machine.h"

namespace imoltp::mcsim {
namespace {

void BM_CacheAccessHit(benchmark::State& state) {
  Cache cache(CacheConfig{32 * 1024, 64, 8});
  for (uint64_t i = 0; i < 512; ++i) cache.Access(i);
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(line));
    line = (line + 1) & 511;
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheAccessMissStream(benchmark::State& state) {
  Cache cache(CacheConfig{32 * 1024, 64, 8});
  uint64_t line = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Access(line));
    line += 513;  // never reuses a set-resident line
  }
}
BENCHMARK(BM_CacheAccessMissStream);

void BM_HierarchyDataRead(benchmark::State& state) {
  MachineConfig cfg;
  cfg.model_tlb = state.range(0) != 0;
  MachineSim machine(cfg);
  Rng rng(1);
  for (auto _ : state) {
    machine.core(0).Read(rng.Next() & ((1ULL << 30) - 1), 8);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyDataRead)->Arg(0)->Arg(1);

// Ascending line addresses with the TLB off: every read misses every
// level, the shape of the engines' cache warm-up stream.
void BM_HierarchyDataReadSequential(benchmark::State& state) {
  MachineConfig cfg;
  cfg.model_tlb = false;
  MachineSim machine(cfg);
  uint64_t addr = 0;
  for (auto _ : state) {
    machine.core(0).Read(addr, 8);
    addr += cfg.l1d.line_bytes;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyDataReadSequential);

void BM_RegionExecution(benchmark::State& state) {
  MachineSim machine;
  CodeRegion region = machine.code_space().Define(
      kNoModule, static_cast<uint32_t>(state.range(0)),
      static_cast<uint32_t>(state.range(0)), 1000, 5.0);
  for (auto _ : state) {
    machine.core(0).ExecuteRegion(region);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegionExecution)->Arg(2 << 10)->Arg(16 << 10)->Arg(64 << 10);

// Shore-MT-sized regions (10-11 KB fetch windows at varying offsets in
// 13-20 KB regions): two hot ones that fit the L1I together, and a cold
// one, run one execution in twelve, that evicts part of them. The L1I
// hits about 86% of lines, the mix the disk engines' code fetch makes.
// Items are fetched lines, so 1e9 / items_per_second is the host cost
// of one simulated line.
void BM_RegionExecutionMix(benchmark::State& state) {
  MachineSim machine;
  std::vector<CodeRegion> regions;
  for (uint32_t kb : {13, 17, 20}) {
    regions.push_back(machine.code_space().Define(
        kNoModule, kb << 10, (10 + kb % 2) << 10, 1000, 5.0));
  }
  Rng rng(1);
  CoreSim& core = machine.core(0);
  for (auto _ : state) {
    const uint64_t pick = rng.Uniform(12);
    core.ExecuteRegion(regions[pick == 0 ? 2 : pick % 2]);
  }
  const CoreCounters& c = core.counters();
  state.SetItemsProcessed(static_cast<int64_t>(c.code_line_fetches));
  state.counters["l1i_hit_rate"] =
      1.0 - static_cast<double>(c.misses.l1i) /
                static_cast<double>(c.code_line_fetches);
}
BENCHMARK(BM_RegionExecutionMix);

}  // namespace
}  // namespace imoltp::mcsim

BENCHMARK_MAIN();
