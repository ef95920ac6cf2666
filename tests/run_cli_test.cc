#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "obs/json.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

namespace imoltp::tools {
namespace {

// ----------------------------------------------------------- ParseSize

TEST(ParseSizeTest, AcceptsSuffixedSizes) {
  EXPECT_EQ(ParseSize("10MB"), 10ULL << 20);
  EXPECT_EQ(ParseSize("1GB"), 1ULL << 30);
  EXPECT_EQ(ParseSize("512KB"), 512ULL << 10);
  EXPECT_EQ(ParseSize("100gb"), 100ULL << 30);  // case-insensitive
  EXPECT_EQ(ParseSize("2.5MB"), (5ULL << 20) / 2);
}

TEST(ParseSizeTest, BareNumberMeansMegabytes) {
  EXPECT_EQ(ParseSize("16"), 16ULL << 20);
}

TEST(ParseSizeTest, RejectsGarbage) {
  EXPECT_EQ(ParseSize("abc"), 0u);
  EXPECT_EQ(ParseSize(""), 0u);
  EXPECT_EQ(ParseSize(nullptr), 0u);
  EXPECT_EQ(ParseSize("0MB"), 0u);
  EXPECT_EQ(ParseSize("-5MB"), 0u);
  EXPECT_EQ(ParseSize("10XB"), 0u);
  EXPECT_EQ(ParseSize("10MBextra"), 0u);
  EXPECT_EQ(ParseSize("MB"), 0u);
}

// ----------------------------------------------------- ParseCommandLine

// Parses `args` (argv without the program name) through `cli`.
std::pair<bool, std::string> ParseWith(const FlagSet& cli,
                                       std::vector<const char*> args) {
  args.insert(args.begin(), "tool");
  bool help = false;
  std::string error;
  const bool ok = cli.Parse(static_cast<int>(args.size()),
                            const_cast<char* const*>(args.data()), 1,
                            &help, &error);
  return {ok, error};
}

std::pair<bool, std::string> Parse(std::vector<const char*> args,
                                   Flags* flags) {
  return ParseWith(RunCommandLine(flags), std::move(args));
}

TEST(ParseCommandLineTest, ParsesFullFlagSet) {
  Flags flags;
  auto [ok, error] = Parse(
      {"--engine=hyper", "--workload=tpcc", "--db=1GB", "--rows=10",
       "--warehouses=8", "--workers=4", "--txns=500", "--warmup=100",
       "--index=btree", "--no-compilation", "--seed=9", "--csv-header",
       "--json=out.json"},
      &flags);
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(flags.engine, "hyper");
  EXPECT_EQ(flags.workload, "tpcc");
  EXPECT_EQ(flags.db_bytes, 1ULL << 30);
  EXPECT_EQ(flags.rows, 10);
  EXPECT_EQ(flags.warehouses, 8);
  EXPECT_EQ(flags.workers, 4);
  EXPECT_EQ(flags.txns, 500u);
  EXPECT_EQ(flags.warmup, 100u);
  EXPECT_EQ(flags.index, "btree");
  EXPECT_FALSE(flags.compilation);
  EXPECT_EQ(flags.seed, 9u);
  EXPECT_TRUE(flags.csv);
  EXPECT_TRUE(flags.csv_header);
  EXPECT_EQ(flags.json_path, "out.json");
}

TEST(ParseCommandLineTest, UnknownFlagFails) {
  Flags flags;
  auto [ok, error] = Parse({"--frobnicate=yes"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--frobnicate"), std::string::npos);
}

TEST(ParseCommandLineTest, BadSizeFails) {
  Flags flags;
  auto [ok, error] = Parse({"--db=abc"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--db"), std::string::npos);
}

TEST(ParseCommandLineTest, NonNumericWorkersFails) {
  Flags flags;
  auto [ok, error] = Parse({"--workers=lots"}, &flags);
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("--workers"), std::string::npos);
}

TEST(ParseCommandLineTest, EmptyJsonPathFails) {
  Flags flags;
  auto [ok, error] = Parse({"--json="}, &flags);
  EXPECT_FALSE(ok);
}

TEST(ParseCommandLineTest, ParsesSamplingFlags) {
  Flags flags;
  auto [ok, error] =
      Parse({"--sample-every=5000", "--timeline-out=run.json"}, &flags);
  EXPECT_TRUE(ok) << error;
  EXPECT_EQ(flags.sample_every, 5000u);
  EXPECT_EQ(flags.timeline_out, "run.json");
}

TEST(ParseCommandLineTest, RejectsBadSampleEvery) {
  // Zero means "off" and is spelled by omitting the flag; a malformed
  // period must not silently disable sampling.
  for (const char* arg :
       {"--sample-every=0", "--sample-every=abc", "--sample-every=",
        "--sample-every=5k"}) {
    Flags flags;
    auto [ok, error] = Parse({arg}, &flags);
    EXPECT_FALSE(ok) << arg;
    EXPECT_NE(error.find("--sample-every"), std::string::npos) << arg;
  }
}

TEST(ParseCommandLineTest, EmptyTimelineOutFails) {
  Flags flags;
  auto [ok, error] = Parse({"--timeline-out="}, &flags);
  EXPECT_FALSE(ok);
}

TEST(BuildExperimentTest, SamplerPeriodFollowsFlags) {
  // Explicit period wins; a timeline request defaults the period on;
  // neither leaves sampling off.
  struct Case {
    uint64_t sample_every;
    const char* timeline_out;
    uint64_t want;
  };
  for (const Case& c : {Case{5000, "t.json", 5000},
                        Case{0, "t.json", 20000},
                        Case{5000, "", 5000},
                        Case{0, "", 0}}) {
    Flags flags;
    flags.sample_every = c.sample_every;
    flags.timeline_out = c.timeline_out;
    core::ExperimentConfig cfg;
    std::unique_ptr<core::Workload> workload;
    std::string error;
    ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error))
        << error;
    EXPECT_EQ(cfg.sampler.every_cycles, c.want)
        << "sample_every=" << c.sample_every << " timeline_out='"
        << c.timeline_out << "'";
  }
}

TEST(BuildExperimentTest, ModeDefaultsToSerialAndRejectsUnknownNames) {
  core::ExperimentConfig cfg;
  std::unique_ptr<core::Workload> workload;
  std::string error;
  Flags flags;
  cfg.parallel_mode = core::ParallelMode::kInterleaved;
  ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error)) << error;
  EXPECT_EQ(cfg.parallel_mode, core::ParallelMode::kSerial);

  flags.mode = "interleaved";
  ASSERT_TRUE(BuildExperiment(flags, &cfg, &workload, &error)) << error;
  EXPECT_EQ(cfg.parallel_mode, core::ParallelMode::kInterleaved);

  // Retired spellings are unknown names, not aliases.
  for (const char* retired : {"deterministic", "free"}) {
    flags.mode = retired;
    error.clear();
    EXPECT_FALSE(BuildExperiment(flags, &cfg, &workload, &error));
    EXPECT_NE(error.find("choices: serial interleaved"), std::string::npos)
        << error;
  }
}

TEST(BuildExperimentTest, RejectsTpccWarehousesTheWorkersCannotSplit) {
  core::ExperimentConfig cfg;
  std::unique_ptr<core::Workload> workload;
  std::string error;
  Flags flags;
  flags.workload = "tpcc";
  flags.workers = 4;
  for (int warehouses : {1, 3, 6}) {
    flags.warehouses = warehouses;
    error.clear();
    EXPECT_FALSE(BuildExperiment(flags, &cfg, &workload, &error))
        << warehouses << " warehouses";
    EXPECT_NE(error.find("divisible"), std::string::npos) << error;
  }
  flags.warehouses = 8;
  EXPECT_TRUE(BuildExperiment(flags, &cfg, &workload, &error)) << error;
}

// ------------------------------------------------ every tool's flag set

// Every tool's flag table, bound to targets that outlive it.
struct ToolTargets {
  Flags run;
  ChaosFlags chaos;
  ClusterFlags cluster;
  BenchFlags bench;
  imoltp::bench::BenchOptions figure;
};

std::map<std::string, FlagSet> AllToolClis(ToolTargets* t) {
  return {{"imoltp_run", RunCommandLine(&t->run)},
          {"imoltp_chaos", ChaosCommandLine(&t->chaos)},
          {"imoltp_cluster", ClusterCommandLine(&t->cluster)},
          {"imoltp_bench", BenchCommandLine(&t->bench)},
          {"figure", imoltp::bench::FigureCommandLine(&t->figure)}};
}

bool Declares(const FlagSet& cli, const std::string& name) {
  for (const Flag& f : cli.flags) {
    if (f.name == name) return true;
  }
  return false;
}

// Every value that is not whole and in range is a usage error naming
// the flag, on every tool that declares the flag. A parse that stops at
// the first bad character would read `--txns=abc` as 0 and
// `--warmup=-1` as 2^64-1.
TEST(FlagTableTest, MalformedValuesAreRejectedNamingTheFlag) {
  const std::vector<std::string> bad = {
      "--txns=abc",      "--txns=",        "--warmup=-1",
      "--seed=1x",       "--workers=3x",   "--net-latency=x",
      "--index=foo",     "--db=10XB",      "--workers=0",
      "--txns= 5",       "--txns=+5",      "--txns=99999999999999999999",
      "--cycles=2.5",    "--retry=0",      "--multi-home-pct=101",
      "--trace-sample=1/x", "--sweep-pcts=,", "--engines=",
      "--txn-scale=0.5x", "--mode=free",   "--chaos-points=nope=1",
      "--csv=1",         "--txns",
  };
  ToolTargets targets;
  for (const auto& [tool, cli] : AllToolClis(&targets)) {
    for (const std::string& arg : bad) {
      const std::string name = arg.substr(0, arg.find('='));
      if (!Declares(cli, name)) continue;
      SCOPED_TRACE(tool + " " + arg);
      auto [ok, error] = ParseWith(cli, {arg.c_str()});
      EXPECT_FALSE(ok);
      EXPECT_NE(error.find(name), std::string::npos) << error;
    }
  }
}

TEST(FlagTableTest, EachToolDeclaresTheCheckedFlags) {
  // The malformed-value table above only bites where a tool declares
  // the flag; pin the count flags each tool must carry.
  const std::vector<std::pair<const char*, const char*>> want = {
      {"imoltp_run", "--txns"},        {"imoltp_run", "--warmup"},
      {"imoltp_run", "--seed"},        {"imoltp_run", "--index"},
      {"imoltp_run", "--retry-backoff"}, {"imoltp_chaos", "--txns"},
      {"imoltp_chaos", "--warmup"},    {"imoltp_chaos", "--seed"},
      {"imoltp_chaos", "--retry-backoff"}, {"imoltp_cluster", "--txns"},
      {"imoltp_cluster", "--warmup"},  {"imoltp_cluster", "--seed"},
      {"imoltp_cluster", "--net-latency"}, {"imoltp_bench", "--txns"},
      {"imoltp_bench", "--warmup"},    {"imoltp_bench", "--seed"},
      {"imoltp_bench", "--workers"},   {"imoltp_bench", "--warehouses"},
      {"figure", "--txn-scale"},
  };
  ToolTargets targets;
  const std::map<std::string, FlagSet> clis = AllToolClis(&targets);
  for (const auto& [tool, flag] : want) {
    EXPECT_TRUE(Declares(clis.at(tool), flag)) << tool << " " << flag;
  }
}

TEST(FlagTableTest, WholeInRangeValuesParse) {
  ChaosFlags chaos;
  auto [ok, error] = ParseWith(
      ChaosCommandLine(&chaos),
      {"--engine=hyper", "--txns=0", "--warmup=18446744073709551615",
       "--mode=interleaved", "--log-buffer=64KB", "--checkpoint-every=8",
       "--chaos-points=crash.mid_commit=@90",
       "--chaos-points=log.truncate_tail=@1"});
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(chaos.opt.engine, engine::EngineKind::kHyPer);
  EXPECT_EQ(chaos.opt.measure_txns, 0u);
  EXPECT_EQ(chaos.opt.warmup_txns, ~uint64_t{0});
  EXPECT_EQ(chaos.opt.mode, core::ParallelMode::kInterleaved);
  EXPECT_EQ(chaos.opt.log_buffer_bytes, 64u << 10);
  EXPECT_TRUE(chaos.opt.checkpoint.enabled);
  EXPECT_EQ(chaos.opt.checkpoint.every_n_ticks, 8u);
  EXPECT_EQ(chaos.opt.points.size(), 2u);  // repeats accumulate

  ClusterFlags cluster;
  std::tie(ok, error) = ParseWith(
      ClusterCommandLine(&cluster),
      {"--net-latency=2000", "--trace-sample=1/16", "--sweep-pcts=0,50",
       "--chaos-node-death=@40", "--no-recover"});
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(cluster.cfg.net.latency_cycles, 2000u);
  EXPECT_TRUE(cluster.cfg.trace.enabled);
  EXPECT_EQ(cluster.cfg.trace.sample, 16u);
  EXPECT_TRUE(cluster.trace_set);
  EXPECT_EQ(cluster.sweep_pcts, (std::vector<int>{0, 50}));
  EXPECT_TRUE(cluster.cfg.chaos.enabled);
  EXPECT_EQ(cluster.cfg.chaos.nth_hit, 40u);
  EXPECT_FALSE(cluster.cfg.chaos.recover);

  BenchFlags bench;
  std::tie(ok, error) = ParseWith(
      BenchCommandLine(&bench),
      {"--engines=voltdb,hyper", "--workers=3", "--db=2MB"});
  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(bench.engines, (std::vector<std::string>{"voltdb", "hyper"}));
  EXPECT_EQ(bench.workers, 3);
  EXPECT_EQ(bench.db_bytes, 2ULL << 20);
}

TEST(FlagTableTest, HelpStopsParsingAndUsageListsDefaults) {
  Flags flags;
  const FlagSet cli = RunCommandLine(&flags);
  std::vector<const char*> args = {"tool", "-h", "--frobnicate"};
  bool help = false;
  std::string error;
  EXPECT_TRUE(cli.Parse(3, const_cast<char* const*>(args.data()), 1, &help,
                        &error));
  EXPECT_TRUE(help);
  const std::string usage = cli.Usage("imoltp_run");
  EXPECT_NE(usage.find("--txns=N"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default 6000)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default voltdb)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(default 10MB)"), std::string::npos) << usage;
}

// ---------------------------------------------------------- the binaries

// Runs `cmd` through the shell; returns its exit code (-1 if it did not
// exit) and, when `out` is non-null, its stdout.
int RunCommand(const std::string& cmd, std::string* out = nullptr) {
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    if (out != nullptr) out->append(buf, n);
  }
  const int status = pclose(pipe);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// The same rule through the binary: a usage error (exit 2), where an
// empty warehouse range once died with SIGFPE.
TEST(RunBinaryTest, TpccWarehousesTheWorkersCannotSplitExitTwo) {
  const std::string cmd = std::string(IMOLTP_RUN_BINARY) +
                          " --engine=voltdb --workload=tpcc"
                          " --warehouses=3 --workers=4 2>/dev/null";
  EXPECT_EQ(RunCommand(cmd), 2);
}

// A malformed count must stop the run: read as 0, imoltp_run would
// report all-zero windows, and imoltp_chaos would audit zero commits and
// say every invariant held.
TEST(RunBinaryTest, MalformedTxnsExitTwo) {
  for (const char* binary : {IMOLTP_RUN_BINARY, IMOLTP_CHAOS_BINARY}) {
    EXPECT_EQ(RunCommand(std::string(binary) +
                         " --txns=abc --warmup=abc 2>/dev/null"),
              2)
        << binary;
  }
}

// CLI smoke: every binary on the flag layer prints a --help that names
// every flag of its table and exits 0, and one malformed value exits 2
// before any work starts.
TEST(CliSmokeTest, HelpNamesEveryFlagAndMalformedValueExitsTwo) {
  struct Binary {
    const char* tool;
    const char* path;
    const char* malformed;
  };
  const Binary binaries[] = {
      {"imoltp_run", IMOLTP_RUN_BINARY, "--seed=1x"},
      {"imoltp_chaos", IMOLTP_CHAOS_BINARY, "--warmup=-1"},
      {"imoltp_cluster", IMOLTP_CLUSTER_BINARY, "run --net-latency=x"},
      {"imoltp_bench", IMOLTP_BENCH_BINARY, "--workers=3x"},
      {"figure", IMOLTP_FIGURE_BINARY, "--txn-scale=abc"},
  };
  ToolTargets targets;
  const std::map<std::string, FlagSet> clis = AllToolClis(&targets);
  for (const Binary& b : binaries) {
    SCOPED_TRACE(b.path);
    std::string help;
    EXPECT_EQ(RunCommand(std::string(b.path) + " --help", &help), 0);
    for (const Flag& f : clis.at(b.tool).flags) {
      EXPECT_NE(help.find(f.name + (f.metavar.empty() ? " " : "=")),
                std::string::npos)
          << f.name;
    }
    EXPECT_EQ(RunCommand(std::string(b.path) + " " + b.malformed +
                         " 2>/dev/null"),
              2)
        << b.malformed;
  }
}

TEST(ParseEngineTest, AllFiveEnginesParse) {
  engine::EngineKind kind;
  for (const char* name :
       {"shore-mt", "dbms-d", "voltdb", "hyper", "dbms-m"}) {
    EXPECT_TRUE(ParseEngine(name, &kind)) << name;
  }
  EXPECT_FALSE(ParseEngine("oracle", &kind));
}

// ----------------------------------------------- CSV <-> JSON parity

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> cells;
  size_t start = 0;
  while (true) {
    const size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      break;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

// Every CSV column must exist in the JSON report at its mapped path
// with the same value — this is the test that keeps the two output
// formats from silently drifting apart.
TEST(CsvJsonParityTest, EveryCsvFieldHasAMatchingJsonPath) {
  Flags flags;
  flags.engine = "voltdb";
  flags.workload = "micro";
  flags.db_bytes = 10ULL << 20;
  flags.rows = 3;
  flags.workers = 2;

  mcsim::WindowReport report;
  report.num_workers = 2;
  report.ipc = 1.2345;
  report.instructions_per_txn = 4567.8;
  report.cycles_per_txn = 9876.5;
  for (int i = 0; i < 6; ++i) {
    report.stalls_per_kinstr.stalls[i] = 10.0 * (i + 1) + 0.25;
  }

  obs::RunInfo info;
  info.engine = flags.engine;
  info.workload = flags.workload;
  info.db_bytes = flags.db_bytes;
  info.rows = flags.rows;
  info.workers = flags.workers;
  const std::string json =
      obs::RunReportToJson(info, report, mcsim::CycleModelParams{},
                           /*latency=*/nullptr, /*spans=*/nullptr);
  auto doc = obs::ParseJson(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();

  const std::vector<std::string> header = SplitCsv(CsvHeader());
  const std::vector<std::string> row = SplitCsv(CsvRow(flags, report));
  ASSERT_EQ(header.size(), static_cast<size_t>(kNumCsvFields));
  ASSERT_EQ(row.size(), static_cast<size_t>(kNumCsvFields));

  for (int i = 0; i < kNumCsvFields; ++i) {
    SCOPED_TRACE(kCsvFields[i].name);
    EXPECT_EQ(header[i], kCsvFields[i].name);
    const obs::JsonValue* node =
        doc.value().FindPath(kCsvFields[i].json_path);
    ASSERT_NE(node, nullptr)
        << "CSV column " << kCsvFields[i].name
        << " has no JSON counterpart at " << kCsvFields[i].json_path;
    if (node->is_string()) {
      EXPECT_EQ(row[i], node->string);
    } else {
      ASSERT_TRUE(node->is_number());
      const double csv_value = std::strtod(row[i].c_str(), nullptr);
      // CSV rounds to fixed decimals; 0.5 absolute covers every format.
      EXPECT_NEAR(csv_value, node->number, 0.5);
    }
  }
}

}  // namespace
}  // namespace imoltp::tools
