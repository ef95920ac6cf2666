// Hostile-input handling: a TraceReader must reject any damaged file —
// truncated anywhere, bit-flipped anywhere, wrong magic or version —
// with a clean Status. No input may crash, hang, or hand the replay
// driver out-of-range ids (ASAN in CI backs the "no UB" half).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "core/microbench.h"
#include "fault/fault_injector.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/record.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace imoltp::trace {
namespace {

std::string TmpPath(const std::string& name) {
  // Per-process suffix: ctest -j runs each discovered test in its own
  // process, and every process re-records the suite fixture — a shared
  // path would let two processes race on the same file.
  return testing::TempDir() + "imoltp_trace_robust_" + name + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".trace";
}

/// Records one small real trace and hands tests its raw bytes.
class TraceRobustnessTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    path_ = new std::string(TmpPath("base"));
    // Small database: warm-up events dominate trace size, and the
    // bit-flip sweep below re-decodes a prefix of the file per flip.
    core::MicroConfig mcfg;
    mcfg.nominal_bytes = 64 << 10;
    core::MicroBenchmark wl(mcfg);
    core::ExperimentConfig cfg;
    cfg.engine = engine::EngineKind::kVoltDb;
    cfg.warmup_txns = 5;
    cfg.measure_txns = 15;
    cfg.seed = 7;
    RecordResult live;
    ASSERT_TRUE(RecordExperiment(cfg, &wl, *path_, mcfg.nominal_bytes, 0,
                                 0, &live)
                    .ok());

    std::FILE* f = std::fopen(path_->c_str(), "rb");
    ASSERT_NE(f, nullptr);
    bytes_ = new std::string;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes_->append(buf, n);
    }
    std::fclose(f);
    ASSERT_GT(bytes_->size(), 64u);
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete bytes_;
    path_ = nullptr;
    bytes_ = nullptr;
  }

  /// Fully consumes `data` through a TraceReader, returning the first
  /// non-OK status (or OK if the whole stream decodes). Must never
  /// crash.
  static Status DecodeAll(std::string data) {
    TraceReader reader;
    Status s = reader.OpenBuffer(
        std::make_shared<const std::string>(std::move(data)));
    if (s.ok()) {
      TraceEvent ev;
      bool done = false;
      while (!done) {
        s = reader.Next(&ev, &done);
        if (!s.ok()) break;
      }
    }
    return s;
  }

  static std::string* path_;
  static std::string* bytes_;
};

std::string* TraceRobustnessTest::path_ = nullptr;
std::string* TraceRobustnessTest::bytes_ = nullptr;

TEST_F(TraceRobustnessTest, IntactFileDecodes) {
  ASSERT_TRUE(DecodeAll(*bytes_).ok());
}

TEST_F(TraceRobustnessTest, EmptyFileRejected) {
  EXPECT_FALSE(DecodeAll("").ok());
}

TEST_F(TraceRobustnessTest, MissingFileRejected) {
  TraceReader reader;
  const Status s = reader.Open(TmpPath("no_such_file"));
  EXPECT_FALSE(s.ok());
}

TEST_F(TraceRobustnessTest, BadMagicRejected) {
  std::string data = *bytes_;
  data[0] = 'X';
  const Status s = DecodeAll(data);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("magic"), std::string::npos);
}

TEST_F(TraceRobustnessTest, VersionMismatchRejected) {
  std::string data = *bytes_;
  data[8] = static_cast<char>(kTraceFormatVersion + 1);
  const Status s = DecodeAll(data);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("version"), std::string::npos);
}

TEST_F(TraceRobustnessTest, TruncationAtEveryRegionRejected) {
  // Cutting the file anywhere — header, block boundary, mid-record,
  // even one byte short — must produce a clean error, because the
  // end-of-stream record can no longer be reached intact.
  const size_t size = bytes_->size();
  std::vector<size_t> cuts = {1,        7,        8,         11,
                              19,       20,       size / 7,  size / 3,
                              size / 2, size - 9, size - 2,  size - 1};
  for (size_t cut : cuts) {
    ASSERT_LT(cut, size);
    EXPECT_FALSE(DecodeAll(bytes_->substr(0, cut)).ok())
        << "truncation at " << cut << " of " << size << " decoded";
  }
}

TEST_F(TraceRobustnessTest, BitFlipsAnywhereRejectedOrHarmless) {
  // Flip one bit every ~97 bytes across the whole file (coarser on big
  // traces — each flip re-decodes up to the damaged block, so a dense
  // sweep is quadratic). Every mutation must fail cleanly: flips land
  // in magic, version, a length, a CRC field, or CRC-protected bytes.
  const size_t step = std::max<size_t>(97, bytes_->size() / 512);
  size_t rejected = 0;
  size_t trials = 0;
  for (size_t pos = 0; pos < bytes_->size(); pos += step) {
    std::string data = *bytes_;
    data[pos] = static_cast<char>(data[pos] ^ (1 << (pos % 8)));
    if (data == *bytes_) continue;  // XOR was a no-op (cannot happen)
    ++trials;
    if (!DecodeAll(data).ok()) ++rejected;
  }
  EXPECT_GT(trials, 100u);
  EXPECT_EQ(rejected, trials);
}

TEST_F(TraceRobustnessTest, TrailingGarbageRejected) {
  EXPECT_FALSE(DecodeAll(*bytes_ + std::string(16, '\x5A')).ok());
}

TEST_F(TraceRobustnessTest, ReplayOfDamagedFileFailsCleanly) {
  // End-to-end: the replay driver surfaces reader errors as Status.
  const std::string path = TmpPath("replay_damaged");
  std::string data = *bytes_;
  data[data.size() / 2] ^= 0x10;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);

  ReplayResult result;
  EXPECT_FALSE(ReplayTraceRecorded(path, &result).ok());
  std::remove(path.c_str());
}

TEST_F(TraceRobustnessTest, DoubleOpenRejected) {
  TraceReader reader;
  ASSERT_TRUE(reader.Open(*path_).ok());
  EXPECT_FALSE(reader.Open(*path_).ok());
}

TEST_F(TraceRobustnessTest, InjectedDeviceReadErrorFailsCleanly) {
  // The fault injector's trace.read_error point simulates a device
  // that dies mid-read on an otherwise-intact file: the reader must
  // surface it as the same clean corruption Status as real damage.
  fault::FaultInjector inj(21);
  inj.Arm(fault::kTraceReadError, {0.0, 2});
  TraceReader reader;
  reader.set_fault_injector(&inj);
  ASSERT_TRUE(reader.Open(*path_).ok());
  TraceEvent ev;
  bool done = false;
  Status s = Status::Ok();
  while (!done) {
    s = reader.Next(&ev, &done);
    if (!s.ok()) break;
  }
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("injected device read error"),
            std::string::npos)
      << s.ToString();

  // An attached-but-unarmed injector must not perturb decoding.
  fault::FaultInjector idle(21);
  TraceReader clean;
  clean.set_fault_injector(&idle);
  ASSERT_TRUE(clean.Open(*path_).ok());
  done = false;
  while (!done) {
    ASSERT_TRUE(clean.Next(&ev, &done).ok());
  }
}

TEST_F(TraceRobustnessTest, RegionOutsideCodeSpaceRejected) {
  // A well-formed file whose region definition lies outside the code
  // space: below kCodeBaseLine, past the kMaxCodeLines cap, or
  // straddling it. The L1I keeps a way map over the code space, so
  // such a region must be rejected before replay fetches from it.
  auto region = [](uint64_t base, uint32_t total) {
    mcsim::CodeRegion r;
    r.base_line = base;
    r.total_lines = total;
    r.touched_lines = total;
    r.instructions = 10;
    return r;
  };
  const uint64_t top = mcsim::kCodeBaseLine + mcsim::kMaxCodeLines;
  const struct {
    mcsim::CodeRegion region;
    bool ok;
  } cases[] = {{region(mcsim::kCodeBaseLine, 16), true},
               {region(top - 16, 16), true},
               {region(0x5555'0000'0000ULL >> 6, 16), false},
               {region(mcsim::kCodeBaseLine - 8, 16), false},
               {region(top - 8, 16), false},
               {region(top, 1), false},
               {region(UINT64_MAX - 4, 16), false}};
  const std::string path = TmpPath("code_space");
  for (const auto& c : cases) {
    SCOPED_TRACE(c.region.base_line);
    mcsim::MachineSim machine;
    TraceWriter writer;
    ASSERT_TRUE(writer.Open(path, machine, TraceWriter::Options()).ok());
    writer.OnExecuteRegion(0, c.region, c.region.base_line);
    ASSERT_TRUE(writer.Finish().ok());

    TraceReader reader;
    Status s = reader.Open(path);
    TraceEvent ev;
    bool done = false;
    while (s.ok() && !done) s = reader.Next(&ev, &done);
    EXPECT_EQ(s.ok(), c.ok) << s.ToString();
    if (!c.ok) {
      EXPECT_NE(s.message().find("outside the code space"),
                std::string::npos)
          << s.ToString();
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imoltp::trace
