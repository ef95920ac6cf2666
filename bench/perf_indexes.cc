// Library micro-benchmarks (google-benchmark): throughput of the index
// structures with tracing attached, across the paper's index archetypes.

#include <benchmark/benchmark.h>

#include <memory>

#include "common/rng.h"
#include "index/index.h"
#include "mcsim/machine.h"

namespace imoltp::index {
namespace {

IndexKind KindOf(int64_t arg) {
  switch (arg) {
    case 0: return IndexKind::kBTree8K;
    case 1: return IndexKind::kBTreeCacheline;
    case 2: return IndexKind::kBTreeCc;
    case 3: return IndexKind::kArt;
    default: return IndexKind::kHash;
  }
}

void BM_IndexInsert(benchmark::State& state) {
  mcsim::MachineSim machine;
  auto index = CreateIndex(KindOf(state.range(0)), 8);
  uint64_t next = 0;
  for (auto _ : state) {
    const uint64_t k = next++;
    benchmark::DoNotOptimize(
        index->Insert(&machine.core(0), Key::FromUint64(k), next));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(IndexKindName(KindOf(state.range(0))));
}
BENCHMARK(BM_IndexInsert)->DenseRange(0, 4);

void BM_IndexLookup(benchmark::State& state) {
  mcsim::MachineSim machine;
  auto index = CreateIndex(KindOf(state.range(0)), 8);
  constexpr uint64_t kKeys = 1 << 20;
  machine.core(0).set_enabled(false);
  for (uint64_t i = 0; i < kKeys; ++i) {
    index->Insert(&machine.core(0), Key::FromUint64(i), i);
  }
  machine.core(0).set_enabled(true);
  Rng rng(1);
  uint64_t v;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Lookup(
        &machine.core(0), Key::FromUint64(rng.Uniform(kKeys)), &v));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(IndexKindName(KindOf(state.range(0))));
}
BENCHMARK(BM_IndexLookup)->DenseRange(0, 4);

void BM_IndexScan100(benchmark::State& state) {
  mcsim::MachineSim machine;
  auto index = CreateIndex(KindOf(state.range(0)), 8);
  if (!index->ordered()) {
    state.SkipWithError("unordered index");
    return;
  }
  constexpr uint64_t kKeys = 1 << 18;
  machine.core(0).set_enabled(false);
  for (uint64_t i = 0; i < kKeys; ++i) {
    index->Insert(&machine.core(0), Key::FromUint64(i), i);
  }
  machine.core(0).set_enabled(true);
  Rng rng(1);
  std::vector<uint64_t> out;
  for (auto _ : state) {
    out.clear();
    index->Scan(&machine.core(0),
                Key::FromUint64(rng.Uniform(kKeys - 128)), 100, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() * 100);
  state.SetLabel(IndexKindName(KindOf(state.range(0))));
}
BENCHMARK(BM_IndexScan100)->DenseRange(0, 3);

}  // namespace
}  // namespace imoltp::index

BENCHMARK_MAIN();
