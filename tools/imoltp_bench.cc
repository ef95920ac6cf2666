// imoltp_bench — canonical benchmark-campaign runner. Sweeps engines ×
// workloads × parallel modes and writes ONE BENCH_<label>.json matrix:
// per cell the simulated quality metrics (IPC, instructions/txn, stall
// breakdown — the paper's axes) AND the host-side speed metrics
// (wall-clock, simulated references per host second, peak RSS — the
// simulator's own performance trajectory). imoltp_diff compares two
// matrices, so "did this commit make the simulator slower or change
// what it simulates?" is one command against a committed baseline
// (see docs/OBSERVABILITY.md, "Benchmark trajectories"). The
// tpcc-cluster workload runs the 3-node src/dist cluster and reports
// cluster-wide averages; its refs/sec counts every node's references
// over the cluster run.
//
//   imoltp_bench --label=pr42 --out=BENCH_pr42.json
//   imoltp_bench --engines=voltdb,hyper --workloads=tpcb --txns=500
//   imoltp_diff BENCH_baseline.json BENCH_pr42.json
//
// `imoltp_bench --help` lists every flag with its default.
//
// Exit codes: 0 = all cells ran, 1 = any cell failed, 2 = usage error.

#include <ctime>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "dist/cluster.h"
#include "obs/bench_json.h"
#include "obs/host_metrics.h"
#include "obs/report_json.h"
#include "tools/imoltp_cli.h"

using namespace imoltp;

namespace {

/// Runs one campaign cell. Returns false (with `error` set) when the
/// configuration is invalid or the run fails.
bool RunCell(const tools::BenchFlags& bench, const std::string& engine,
             const std::string& workload, const std::string& mode,
             obs::BenchCell* cell, std::string* error) {
  tools::Flags flags;
  flags.engine = engine;
  flags.workload = workload;
  flags.mode = mode;
  flags.workers = bench.workers;
  flags.txns = bench.txns;
  flags.warmup = bench.warmup;
  flags.db_bytes = bench.db_bytes;
  flags.warehouses = bench.warehouses;
  flags.seed = bench.seed;

  core::ExperimentConfig cfg;
  std::unique_ptr<core::Workload> wl;
  if (!tools::BuildExperiment(flags, &cfg, &wl, error)) return false;

  const double cell_start = obs::MonotonicSeconds();
  auto created = core::ExperimentRunner::Create(cfg, wl.get());
  if (!created.ok()) {
    *error = created.status().ToString();
    return false;
  }
  core::ExperimentRunner& runner = **created;
  const auto run = runner.Run(wl.get());
  if (!run.ok()) {
    *error = run.status().ToString();
    return false;
  }
  const mcsim::WindowReport& r = *run;
  const obs::HostPerf& host = runner.host_perf();

  cell->id = engine + "/" + workload + "/" + mode + "/w" +
             std::to_string(bench.workers);
  cell->engine = engine;
  cell->workload = workload;
  cell->mode = mode;
  cell->workers = bench.workers;
  cell->warmup_txns = bench.warmup;
  cell->measure_txns = bench.txns;
  cell->seed = bench.seed;
  cell->ipc = r.ipc;
  cell->instructions_per_txn = r.instructions_per_txn;
  cell->cycles_per_txn = r.cycles_per_txn;
  for (int i = 0; i < 6; ++i) {
    cell->stalls_per_kinstr[i] = r.stalls_per_kinstr.stalls[i];
  }
  cell->committed = runner.committed();
  cell->aborts = runner.aborts();
  cell->wall_seconds = host.measure_seconds;
  cell->total_wall_seconds = obs::MonotonicSeconds() - cell_start;
  cell->simulated_refs = host.simulated_refs;
  cell->refs_per_sec = host.refs_per_second;
  cell->instructions_per_sec = host.instructions_per_second;
  cell->peak_rss_bytes = host.peak_rss_bytes;
  return true;
}

/// Runs one distributed cell: a 3-node src/dist cluster at the bench's
/// scale, reporting cluster-wide averages of the simulated metrics. The
/// host axis counts the references every node's machine simulated
/// during Run (warm-up plus measurement), over Run's wall-clock time.
bool RunClusterCell(const tools::BenchFlags& bench, const std::string& engine,
                    obs::BenchCell* cell, std::string* error) {
  dist::ClusterConfig cfg;
  if (!engine::ParseEngineKind(engine, &cfg.engine_kind)) {
    *error = "unknown engine: " + engine +
             " (choices: " + engine::EngineKindChoices() + ")";
    return false;
  }
  cfg.nodes = 3;
  cfg.warehouses_per_node = bench.warehouses;
  cfg.workers_per_node = bench.workers;
  cfg.warmup_per_node = bench.warmup;
  cfg.txns_per_node = bench.txns;
  cfg.multi_home_pct = 10;
  cfg.seed = bench.seed;
  // Trace every transaction: tracing is observer-free (same fingerprint
  // on or off), and it supplies the cell's critical-path column.
  cfg.trace.enabled = true;
  cfg.trace.sample = 1;

  const double cell_start = obs::MonotonicSeconds();
  dist::Cluster cluster(cfg);
  Status s = cluster.Create();
  if (s.ok()) s = cluster.Run();
  if (!s.ok()) {
    *error = s.ToString();
    return false;
  }
  if (!cluster.result().invariants.ok) {
    *error = "cluster invariants violated: " +
             (cluster.result().invariants.violations.empty()
                  ? std::string("(no detail)")
                  : cluster.result().invariants.violations[0]);
    return false;
  }

  cell->id = engine + "/tpcc-cluster/n" + std::to_string(cfg.nodes) +
             "/w" + std::to_string(bench.workers);
  cell->engine = engine;
  cell->workload = "tpcc-cluster";
  cell->mode = "serial";
  cell->workers = bench.workers;
  cell->warmup_txns = bench.warmup;
  cell->measure_txns = bench.txns;
  cell->seed = bench.seed;

  double ipc = 0.0, instr = 0.0, cycles = 0.0;
  double stalls[6] = {};
  int windows = 0;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const dist::Node* node = cluster.node(n);
    if (!node->has_window()) continue;
    const mcsim::WindowReport& r = node->window();
    ipc += r.ipc;
    instr += r.instructions_per_txn;
    cycles += r.cycles_per_txn;
    for (int i = 0; i < 6; ++i) stalls[i] += r.stalls_per_kinstr.stalls[i];
    ++windows;
  }
  if (windows > 0) {
    cell->ipc = ipc / windows;
    cell->instructions_per_txn = instr / windows;
    cell->cycles_per_txn = cycles / windows;
    for (int i = 0; i < 6; ++i) {
      cell->stalls_per_kinstr[i] = stalls[i] / windows;
    }
  }
  cell->committed = cluster.result().committed;
  cell->aborts = cluster.result().aborted;
  cell->p99_net_order_share =
      cluster.tracer().TailComposition().net_order_share;
  cell->wall_seconds = obs::MonotonicSeconds() - cell_start;
  cell->total_wall_seconds = cell->wall_seconds;
  const dist::ClusterHostPerf& host = cluster.host_perf();
  cell->simulated_refs = host.simulated_refs;
  cell->refs_per_sec = host.refs_per_second;
  cell->peak_rss_bytes = host.peak_rss_bytes;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  tools::BenchFlags bench;
  const tools::FlagSet cli = tools::BenchCommandLine(&bench);
  if (const int rc = cli.ParseMain(argc, argv); rc >= 0) return rc;
  if (bench.commit.empty()) {
    const char* env = std::getenv("IMOLTP_COMMIT");
    bench.commit = env != nullptr && *env != '\0' ? env : "unknown";
  }
  if (bench.out.empty()) bench.out = "BENCH_" + bench.label + ".json";
  std::string error;

  obs::BenchMatrix matrix;
  matrix.label = bench.label;
  matrix.commit = bench.commit;
  {
    std::string config;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) config += ' ';
      config += argv[i];
    }
    matrix.config = config;
  }
  matrix.created_unix = static_cast<uint64_t>(std::time(nullptr));

  const size_t total = bench.engines.size() * bench.workloads.size() *
                       bench.modes.size();
  size_t done = 0;
  int failures = 0;
  for (const std::string& engine : bench.engines) {
    for (const std::string& workload : bench.workloads) {
      for (const std::string& mode : bench.modes) {
        ++done;
        std::fprintf(stderr, "[%zu/%zu] %s / %s / %s ...\n", done, total,
                     engine.c_str(), workload.c_str(), mode.c_str());
        if (workload == "tpcc-cluster") {
          // The cluster driver is single-threaded by construction; the
          // mode axis does not apply. Run the cell once, under the
          // serial label, and skip the other modes quietly.
          if (mode != "serial") continue;
          obs::BenchCell cell;
          if (!RunClusterCell(bench, engine, &cell, &error)) {
            std::fprintf(stderr, "%s: %s/%s failed: %s\n", argv[0],
                         engine.c_str(), workload.c_str(), error.c_str());
            ++failures;
            continue;
          }
          matrix.cells.push_back(cell);
          continue;
        }
        obs::BenchCell cell;
        if (!RunCell(bench, engine, workload, mode, &cell, &error)) {
          std::fprintf(stderr, "%s: %s/%s/%s failed: %s\n", argv[0],
                       engine.c_str(), workload.c_str(), mode.c_str(),
                       error.c_str());
          ++failures;
          continue;
        }
        matrix.cells.push_back(cell);
      }
    }
  }

  // Summary table: the simulated axis next to the host axis, per cell.
  std::printf("\n== Bench matrix %s (%zu cells) ==\n",
              bench.label.c_str(), matrix.cells.size());
  std::printf("%-34s %7s %10s %9s %12s %9s\n", "cell", "ipc",
              "instr/txn", "wall(s)", "refs/sec", "rss(MB)");
  for (const obs::BenchCell& c : matrix.cells) {
    std::printf("%-34s %7.4f %10.1f %9.3f %12.4g %9.1f\n",
                c.id.c_str(), c.ipc, c.instructions_per_txn,
                c.wall_seconds, c.refs_per_sec,
                static_cast<double>(c.peak_rss_bytes) / (1024.0 * 1024.0));
  }

  const Status s =
      obs::WriteJsonFile(bench.out, obs::BenchMatrixToJson(matrix));
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], s.ToString().c_str());
    return 1;
  }
  if (bench.out != "-") {
    std::fprintf(stderr, "wrote %s\n", bench.out.c_str());
  }
  return failures == 0 ? 0 : 1;
}
