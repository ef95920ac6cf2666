// Trace subsystem: encoding primitives, header round-trip, config
// specs, and the property the whole design hangs on — a replayed trace
// reproduces the live run's counters bit for bit, for every engine,
// worker count, and database scale.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "core/microbench.h"
#include "core/tpcc.h"
#include "trace/format.h"
#include "trace/meta.h"
#include "trace/reader.h"
#include "trace/record.h"
#include "trace/replay.h"

namespace imoltp::trace {
namespace {

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "imoltp_trace_test_" + name + ".trace";
}

TEST(TraceFormatTest, VarintRoundTrip) {
  const uint64_t values[] = {0,
                             1,
                             0x7F,
                             0x80,
                             0x3FFF,
                             0x4000,
                             1234567,
                             0xFFFFFFFFull,
                             0x123456789ABCDEFull,
                             UINT64_MAX};
  std::string buf;
  for (uint64_t v : values) PutVarint(&buf, v);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
  const uint8_t* end = p + buf.size();
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(&p, end, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(p, end);
}

TEST(TraceFormatTest, VarintTruncationDetected) {
  std::string buf;
  PutVarint(&buf, UINT64_MAX);  // 10 bytes
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    uint64_t got = 0;
    EXPECT_FALSE(GetVarint(&p, p + cut, &got)) << "cut=" << cut;
  }
}

TEST(TraceFormatTest, ZigzagRoundTrip) {
  const int64_t values[] = {0,  1,  -1,        63,       -64, 12345,
                            -12345, INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(TraceFormatTest, DoubleRoundTripsBitExactly) {
  const double values[] = {0.0, -0.0, 1.0, 0.1, 1e300, -1e-300, 3.75};
  for (double v : values) {
    std::string buf;
    PutDouble(&buf, v);
    const uint8_t* p = reinterpret_cast<const uint8_t*>(buf.data());
    double got = 0;
    ASSERT_TRUE(GetDouble(&p, p + buf.size(), &got));
    EXPECT_EQ(std::memcmp(&got, &v, sizeof(v)), 0);
  }
}

TEST(TraceFormatTest, Crc32KnownVector) {
  // The standard check value for CRC-32/ISO-HDLC ("123456789").
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0x00000000u);
}

TEST(TraceFormatTest, Crc32SlicedPathMatchesBytewise) {
  // An input long enough for the slicing-by-8 fast path plus an odd
  // tail, checked against an independent byte-at-a-time computation.
  std::string input(1031, '\0');
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<char>((i * 131) ^ (i >> 3));
  }
  uint32_t slow = 0xFFFFFFFFu;
  for (char c : input) {
    slow ^= static_cast<uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      slow = (slow & 1) ? 0xEDB88320u ^ (slow >> 1) : slow >> 1;
    }
  }
  slow ^= 0xFFFFFFFFu;
  EXPECT_EQ(Crc32(input.data(), input.size()), slow);
}

TEST(TraceMetaTest, JsonRoundTrip) {
  TraceMeta meta;
  meta.trace_id = "deadbeef01234567";
  meta.engine = "voltdb";
  meta.workload = "micro-ro";
  meta.num_workers = 4;
  meta.seed = 42;
  meta.warmup_txns = 100;
  meta.measure_txns = 400;
  meta.db_bytes = 100ULL << 30;
  meta.rows = 10;
  meta.warehouses = 8;
  meta.recorded_config.num_cores = 4;
  meta.recorded_config.llc.size_bytes = 2 << 20;
  meta.recorded_config.model_prefetcher = true;
  meta.recorded_config.cycle.base_cpi = 0.625;
  mcsim::ModuleInfo m;
  m.name = "btree";
  m.inside_engine = true;
  meta.modules.push_back(m);

  TraceMeta got;
  ASSERT_TRUE(TraceMetaFromJson(TraceMetaToJson(meta), &got).ok());
  EXPECT_EQ(got.trace_id, meta.trace_id);
  EXPECT_EQ(got.engine, meta.engine);
  EXPECT_EQ(got.workload, meta.workload);
  EXPECT_EQ(got.num_workers, meta.num_workers);
  EXPECT_EQ(got.seed, meta.seed);
  EXPECT_EQ(got.warmup_txns, meta.warmup_txns);
  EXPECT_EQ(got.measure_txns, meta.measure_txns);
  EXPECT_EQ(got.db_bytes, meta.db_bytes);
  EXPECT_EQ(got.rows, meta.rows);
  EXPECT_EQ(got.warehouses, meta.warehouses);
  EXPECT_EQ(got.recorded_config.num_cores, 4);
  EXPECT_EQ(got.recorded_config.llc.size_bytes, 2u << 20);
  EXPECT_TRUE(got.recorded_config.model_prefetcher);
  EXPECT_DOUBLE_EQ(got.recorded_config.cycle.base_cpi, 0.625);
  ASSERT_EQ(got.modules.size(), 1u);
  EXPECT_EQ(got.modules[0].name, "btree");
  EXPECT_TRUE(got.modules[0].inside_engine);
}

TEST(ConfigSpecTest, ParsesSizesAndToggles) {
  mcsim::MachineConfig c;
  ASSERT_TRUE(ApplyConfigSpec(
                  "llc=2MB,l1d=16KB,pf=on,pfdeg=4,tlb=off,line=128", &c)
                  .ok());
  EXPECT_EQ(c.llc.size_bytes, 2u << 20);
  EXPECT_EQ(c.l1d.size_bytes, 16u << 10);
  EXPECT_TRUE(c.model_prefetcher);
  EXPECT_EQ(c.prefetch_degree, 4u);
  EXPECT_FALSE(c.model_tlb);
  EXPECT_EQ(c.l1i.line_bytes, 128u);
  EXPECT_EQ(c.llc.line_bytes, 128u);
}

TEST(ConfigSpecTest, EmptyAndRecordedAreNoOps) {
  mcsim::MachineConfig base;
  mcsim::MachineConfig c = base;
  ASSERT_TRUE(ApplyConfigSpec("", &c).ok());
  ASSERT_TRUE(ApplyConfigSpec("recorded", &c).ok());
  EXPECT_EQ(c.llc.size_bytes, base.llc.size_bytes);
}

TEST(ConfigSpecTest, RejectsMalformedSpecs) {
  mcsim::MachineConfig c;
  EXPECT_FALSE(ApplyConfigSpec("bogus=1", &c).ok());
  EXPECT_FALSE(ApplyConfigSpec("llc=", &c).ok());
  EXPECT_FALSE(ApplyConfigSpec("llc=-2MB", &c).ok());
  EXPECT_FALSE(ApplyConfigSpec("=2MB", &c).ok());
  EXPECT_FALSE(ApplyConfigSpec("pf=maybe", &c).ok());
  EXPECT_FALSE(ApplyConfigSpec("line=100", &c).ok());  // not a power of 2
  EXPECT_FALSE(ApplyConfigSpec("line=8", &c).ok());    // below minimum
  EXPECT_FALSE(ApplyConfigSpec("llc_assoc=512", &c).ok());  // > 256 ways
  EXPECT_FALSE(ApplyConfigSpec("base_cpi=abc", &c).ok());
}

// --- Round-trip determinism -------------------------------------------

core::ExperimentConfig FastConfig(engine::EngineKind kind, int workers) {
  core::ExperimentConfig cfg;
  cfg.engine = kind;
  cfg.num_workers = workers;
  cfg.warmup_txns = 50;
  cfg.measure_txns = 150;
  cfg.seed = 7;
  return cfg;
}

void ExpectBitIdenticalRoundTrip(engine::EngineKind kind,
                                 const char* tag, uint64_t nominal_bytes,
                                 uint64_t max_resident_rows,
                                 int workers) {
  core::MicroConfig mcfg;
  mcfg.nominal_bytes = nominal_bytes;
  mcfg.max_resident_rows = max_resident_rows;
  core::MicroBenchmark wl(mcfg);
  const std::string path = TmpPath(tag);

  RecordResult live;
  ASSERT_TRUE(RecordExperiment(FastConfig(kind, workers), &wl, path,
                               nominal_bytes, 0, 0, &live)
                  .ok());
  EXPECT_GT(live.events, 0u);
  EXPECT_FALSE(live.trace_id.empty());

  ReplayResult replay;
  ASSERT_TRUE(ReplayTraceRecorded(path, &replay).ok());
  EXPECT_EQ(replay.events, live.events);
  EXPECT_TRUE(replay.has_window);
  ASSERT_EQ(replay.counters.size(), static_cast<size_t>(workers));
  ASSERT_EQ(live.counters.size(), static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    EXPECT_TRUE(CountersIdentical(live.counters[w], replay.counters[w]))
        << "core " << w << " diverged";
    EXPECT_EQ(live.prefetches[w], replay.prefetches[w]);
  }
  EXPECT_DOUBLE_EQ(replay.window.ipc, live.window.ipc);
  EXPECT_DOUBLE_EQ(replay.window.cycles_per_txn, live.window.cycles_per_txn);
  std::remove(path.c_str());
}

TEST(TraceRoundTripTest, ShoreMt1MB) {
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kShoreMt, "shore_mt",
                              1 << 20, 2'000'000, 1);
}

TEST(TraceRoundTripTest, DbmsD1MB) {
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kDbmsD, "dbms_d",
                              1 << 20, 2'000'000, 1);
}

TEST(TraceRoundTripTest, VoltDb1MB) {
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kVoltDb, "voltdb",
                              1 << 20, 2'000'000, 1);
}

TEST(TraceRoundTripTest, HyPer1MB) {
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kHyPer, "hyper",
                              1 << 20, 2'000'000, 1);
}

TEST(TraceRoundTripTest, DbmsM1MB) {
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kDbmsM, "dbms_m",
                              1 << 20, 2'000'000, 1);
}

TEST(TraceRoundTripTest, Sparse100GBNominal) {
  // The paper's memory-resident-beyond-LLC regime: sparse address-space
  // tables with a resident-row cap (DESIGN.md, Substitutions).
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kVoltDb,
                              "sparse_100gb", 100ULL << 30, 50'000, 1);
}

TEST(TraceRoundTripTest, FourWorkerInterleavingPreserved) {
  // Cross-core invalidations make multi-worker counters depend on the
  // exact global interleaving of accesses; bit-identical counters on
  // every core prove the single-stream encoding preserves it.
  ExpectBitIdenticalRoundTrip(engine::EngineKind::kVoltDb, "mt4",
                              1 << 20, 2'000'000, 4);
}

TEST(TraceRoundTripTest, InterleavedShoreMtTpccPreserved) {
  // kInterleaved switches workers between operations: still one ordered
  // event stream, so a replay must reproduce every core exactly.
  core::TpccConfig tcfg;
  tcfg.warehouses = 2;
  tcfg.orders_per_district = 30;
  tcfg.num_partitions = 2;
  core::TpccBenchmark wl(tcfg);
  core::ExperimentConfig cfg = FastConfig(engine::EngineKind::kShoreMt, 2);
  cfg.parallel_mode = core::ParallelMode::kInterleaved;
  const std::string path = TmpPath("interleaved_tpcc");

  RecordResult live;
  ASSERT_TRUE(RecordExperiment(cfg, &wl, path, 0, 0, tcfg.warehouses,
                               &live)
                  .ok());
  ReplayResult replay;
  ASSERT_TRUE(ReplayTraceRecorded(path, &replay).ok());
  EXPECT_EQ(replay.events, live.events);
  ASSERT_EQ(replay.counters.size(), 2u);
  for (int w = 0; w < 2; ++w) {
    EXPECT_TRUE(CountersIdentical(live.counters[w], replay.counters[w]))
        << "core " << w << " diverged";
  }
  EXPECT_DOUBLE_EQ(replay.window.ipc, live.window.ipc);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, DifferentConfigProducesDifferentResult) {
  core::MicroConfig mcfg;
  mcfg.nominal_bytes = 1 << 20;
  core::MicroBenchmark wl(mcfg);
  const std::string path = TmpPath("config_sensitivity");
  RecordResult live;
  ASSERT_TRUE(RecordExperiment(FastConfig(engine::EngineKind::kVoltDb, 1),
                               &wl, path, mcfg.nominal_bytes, 0, 0, &live)
                  .ok());

  TraceReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  mcsim::MachineConfig tiny = reader.meta().recorded_config;
  ASSERT_TRUE(ApplyConfigSpec("l1i=4KB,l1d=4KB", &tiny).ok());

  ReplayResult shrunk;
  ASSERT_TRUE(ReplayTrace(path, tiny, &shrunk).ok());
  // Same retired work, worse cache behaviour.
  EXPECT_EQ(shrunk.counters[0].instructions,
            live.counters[0].instructions);
  EXPECT_GT(shrunk.window.cycles_per_txn, live.window.cycles_per_txn);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, SweepSharesOneFile) {
  core::MicroConfig mcfg;
  mcfg.nominal_bytes = 1 << 20;
  core::MicroBenchmark wl(mcfg);
  const std::string path = TmpPath("sweep");
  RecordResult live;
  ASSERT_TRUE(RecordExperiment(FastConfig(engine::EngineKind::kVoltDb, 2),
                               &wl, path, mcfg.nominal_bytes, 0, 0, &live)
                  .ok());

  TraceReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  const mcsim::MachineConfig recorded = reader.meta().recorded_config;

  std::vector<SweepCell> cells;
  for (const char* spec : {"", "l1d=16KB", "llc=2MB", "pf=on"}) {
    SweepCell cell;
    cell.label = *spec == '\0' ? "recorded" : spec;
    cell.config = recorded;
    ASSERT_TRUE(ApplyConfigSpec(spec, &cell.config).ok());
    cells.push_back(std::move(cell));
  }
  RunSweep(path, &cells, /*threads=*/2);
  for (const SweepCell& cell : cells) {
    EXPECT_TRUE(cell.status.ok()) << cell.label << ": "
                                  << cell.status.ToString();
    EXPECT_TRUE(cell.result.has_window) << cell.label;
  }
  // The recorded cell must reproduce the live run exactly.
  for (size_t w = 0; w < live.counters.size(); ++w) {
    EXPECT_TRUE(CountersIdentical(live.counters[w],
                                  cells[0].result.counters[w]));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imoltp::trace
