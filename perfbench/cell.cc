// perfbench_cell — runs ONE experiment cell of one benchmark workload in
// this process and prints one JSON object describing it on stdout.
// perfbench/run.py drives it, one process per cell, and aggregates.
//
//   perfbench_cell --workload=tpcc-shore-mt --seed=42 [--mode=plain]
//                  [--out-dir=DIR]
//
// Modes:
//   plain    untraced cell: the end-to-end host timings
//   traced   the same cell with every wrapped boundary recording spans
//            (written to DIR/spans-<workload>.json) and the CoreSim
//            verbs counted; reports the per-layer metrics
//   capture  records the cell's reference stream (TraceWriter), then
//            re-simulates it through a fresh machine, timing decoding
//            and CoreSim verbs separately (not available for the
//            cluster, whose nodes are built and populated internally)
//
// Every mode prints the cell's exact simulated signature (instructions,
// commits, aborts, invariant checksums, cluster fingerprint) so the
// run.py can check all cells of a run, traced or not, against each
// other and against the reference for the seed.
//
// Exit codes: 0 = cell ran (its outputs may still fail run.py's
// checks), 1 = the cell failed, 2 = usage error.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "dist/cluster.h"
#include "dist/cluster_json.h"
#include "fault/invariants.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/report_json.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"

using namespace imoltp;
using perfbench::NowNs;
using perfbench::SpanLog;

namespace {

/// One benchmark workload. Transaction counts are per worker (per node
/// for the cluster); every workload runs 2 workers under the library's
/// default ParallelMode.
struct WorkloadSpec {
  const char* name;
  bool cluster;
  bool tpcc;  // else TPC-B
  engine::EngineKind engine;
  uint64_t warmup;
  uint64_t measure;
};

constexpr int kWorkers = 2;
constexpr int kWarehouses = 2;  // TPC-C: per node for the cluster
constexpr int kClusterNodes = 3;
constexpr uint64_t kTpcbBytes = 1ULL << 20;
// Individually stored spans per thread lane (all spans are aggregated).
constexpr size_t kMaxStoredSpans = 20000;
// Report serialisations timed per cell (obs.report_json_s is the mean).
constexpr int kReportReps = 20;
// Events decoded per block before the block is re-simulated.
constexpr size_t kResimBlock = 4096;

constexpr WorkloadSpec kWorkloads[] = {
    {"tpcc-shore-mt", false, true, engine::EngineKind::kShoreMt, 500, 2000},
    {"tpcb-hyper", false, false, engine::EngineKind::kHyPer, 10000, 50000},
    {"tpcc-cluster3-hyper", true, true, engine::EngineKind::kHyPer, 400,
     4000},
};

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 42;
  std::string mode = "plain";
  std::string out_dir = ".";
};

int Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench_cell: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench_cell --workload=NAME --seed=N "
               "[--mode=plain|traced|capture] [--out-dir=DIR]\n"
               "workloads:");
  for (const WorkloadSpec& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      for (const WorkloadSpec& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) args->spec = &w;
      }
      if (args->spec == nullptr) {
        *error = std::string("unknown workload: ") + v;
        return false;
      }
    } else if (const char* v = value("--seed=")) {
      char* end = nullptr;
      args->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        *error = std::string("bad --seed: ") + v;
        return false;
      }
    } else if (const char* v = value("--mode=")) {
      args->mode = v;
      if (args->mode != "plain" && args->mode != "traced" &&
          args->mode != "capture") {
        *error = "bad --mode: " + args->mode;
        return false;
      }
    } else if (const char* v = value("--out-dir=")) {
      args->out_dir = v;
    } else {
      *error = "unknown flag: " + arg;
      return false;
    }
  }
  if (args->spec == nullptr) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

/// Thread hand-offs the CPU probe times on each candidate CPU.
constexpr int kProbeHandoffs = 5000;

/// Seconds two threads pinned to `cpu` take for kProbeHandoffs
/// turnstile-style hand-offs (mutex + condition variable).
double HandoffSeconds(int cpu) {
  std::mutex mu;
  std::condition_variable cv;
  int turn = 0;
  auto player = [&](int me) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
    for (int i = 0; i < kProbeHandoffs; ++i) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return turn == me; });
      turn = 1 - me;
      lock.unlock();
      cv.notify_all();
    }
  };
  const uint64_t t0 = NowNs();
  std::thread a(player, 0), b(player, 1);
  a.join();
  b.join();
  return static_cast<double>(NowNs() - t0) * 1e-9;
}

/// Pins the process to the allowed CPU where two threads hand off
/// fastest right now. The host's vCPUs slow down one at a time, in
/// phases of seconds, which moved whole runs by up to 45 %; the default
/// ParallelMode's two workers never run at once, so one CPU is enough,
/// and on one CPU no hand-off pays a cross-CPU wake-up.
void PinToFastestCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int best = -1;
  double best_s = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    const double s = HandoffSeconds(cpu);
    if (best < 0 || s < best_s) {
      best = cpu;
      best_s = s;
    }
  }
  if (best < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  sched_setaffinity(0, sizeof(one), &one);
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

uint64_t Refs(const mcsim::CoreCounters& c) {
  return c.code_line_fetches + c.data_accesses;
}

/// FNV-1a over invariant checksums: one exact token per audit.
std::string ChecksumDigest(const std::vector<int64_t>& sums) {
  uint64_t h = 1469598103934665603ULL;
  for (int64_t v : sums) {
    for (int b = 0; b < 8; ++b) {
      h ^= (static_cast<uint64_t>(v) >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Everything one cell reports, grouped the way run.py checks it.
struct CellOutput {
  // Exact simulated signature: must repeat bit for bit for a seed.
  uint64_t instructions = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t attempted = 0;
  bool invariants_ok = false;
  std::string checksum;
  std::string fingerprint;  // cluster only
  // Simulated-time metrics: repeat up to cache-placement noise.
  std::map<std::string, double> sim;
  // Host metrics of this cell.
  std::map<std::string, double> host;
  // Per-layer metrics (traced / capture modes).
  std::map<std::string, double> layers;
  // Capture mode: live counters equal the re-simulation's.
  bool resim_identical = false;
};

std::string ToJson(const Args& args, const CellOutput& out) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("workload", args.spec->name);
  w.KeyValue("seed", args.seed);
  w.KeyValue("mode", args.mode);
  w.Key("exact");
  w.BeginObject();
  w.KeyValue("instructions", out.instructions);
  w.KeyValue("committed", out.committed);
  w.KeyValue("aborted", out.aborted);
  w.KeyValue("attempted", out.attempted);
  w.KeyValue("invariants_ok", out.invariants_ok);
  w.KeyValue("checksum", out.checksum);
  w.KeyValue("fingerprint", out.fingerprint);
  w.EndObject();
  if (args.mode == "capture") {
    w.KeyValue("resim_identical", out.resim_identical);
  }
  for (const auto& [section, values] :
       {std::pair<const char*, const std::map<std::string, double>*>{
            "sim", &out.sim},
        {"host", &out.host},
        {"layers", &out.layers}}) {
    w.Key(section);
    w.BeginObject();
    for (const auto& [k, v] : *values) w.KeyValue(k, v);
    w.EndObject();
  }
  w.EndObject();
  return w.TakeString();
}

/// Simulated-time metrics over a set of measurement windows (one per
/// node; a single window for the single-machine workloads). Returns the
/// windows' simulated cycles summed over worker cores.
double AddSimMetrics(const std::vector<const mcsim::WindowReport*>& windows,
                   CellOutput* out) {
  double instr = 0, cycles = 0, txns = 0;
  mcsim::LevelMisses m;
  for (const mcsim::WindowReport* r : windows) {
    instr += r->instructions * r->num_workers;
    cycles += r->cycles * r->num_workers;
    txns += r->transactions * r->num_workers;
    m += r->misses;
  }
  const double kinstr = instr > 0 ? instr / 1000.0 : 1.0;
  out->sim["mcsim.sim.ipc"] = cycles > 0 ? instr / cycles : 0.0;
  out->sim["mcsim.sim.cycles_per_txn"] = txns > 0 ? cycles / txns : 0.0;
  out->sim["mcsim.sim.l1i_mpki"] = static_cast<double>(m.l1i) / kinstr;
  out->sim["mcsim.sim.l1d_mpki"] = static_cast<double>(m.l1d) / kinstr;
  out->sim["mcsim.sim.l2_mpki"] = static_cast<double>(m.l2i + m.l2d) / kinstr;
  out->sim["mcsim.sim.llc_mpki"] =
      static_cast<double>(m.llc_i + m.llc_d) / kinstr;
  return cycles;
}

/// Lifecycle spans the engines attribute simulated cycles to, in the
/// order of kSpanShareNames.
constexpr obs::SpanKind kShareKinds[] = {
    obs::SpanKind::kIndexProbe, obs::SpanKind::kStorageAccess,
    obs::SpanKind::kLockAcquire, obs::SpanKind::kLogAppend};
constexpr const char* kSpanShareNames[] = {
    "index.sim_cycle_share", "storage.sim_cycle_share",
    "txn.lock.sim_cycle_share", "txn.log.sim_cycle_share"};
using SpanCycles = std::array<double, 4>;

SpanCycles SpanCyclesOf(const obs::SpanCollector& spans) {
  SpanCycles c{};
  for (size_t i = 0; i < c.size(); ++i) c[i] = spans.stats(kShareKinds[i]).cycles;
  return c;
}

/// Span-attributed shares of `cycles` simulated cycles (index, storage,
/// locks, log).
void AddSpanShares(const SpanCycles& span_cycles, double cycles,
                   CellOutput* out) {
  for (size_t i = 0; i < span_cycles.size(); ++i) {
    out->layers[kSpanShareNames[i]] =
        cycles > 0 ? span_cycles[i] / cycles : 0.0;
  }
}

/// Host-side span metrics of a traced cell.
void AddSpanMetrics(const SpanLog& log, const core::Workload* workload,
                    CellOutput* out) {
  using perfbench::SpanName;
  const auto t = log.Totals();
  auto total_s = [&](SpanName n) { return Seconds(t[n].total_ns); };
  out->layers["core.rowgen_s"] = total_s(perfbench::kSpanRowGen);
  out->layers["core.rowgen_calls"] =
      static_cast<double>(t[perfbench::kSpanRowGen].count);
  out->layers["core.keyof_s"] = total_s(perfbench::kSpanKeyOf);
  out->layers["core.workload_self_s"] =
      total_s(perfbench::kSpanTxn) - total_s(perfbench::kSpanExecute);
  out->layers["core.harness_self_s"] =
      total_s(perfbench::kSpanRun) - total_s(perfbench::kSpanTxn);
  out->layers["engine.execute_s"] = total_s(perfbench::kSpanExecute);
  out->layers["engine.self_s"] =
      total_s(perfbench::kSpanExecute) - total_s(perfbench::kSpanBody);
  double op_s = 0;
  for (int n = perfbench::kFirstOpSpan; n <= perfbench::kLastOpSpan; ++n) {
    const auto name = static_cast<SpanName>(n);
    const std::string key = perfbench::SpanNameString(name);
    op_s += total_s(name);
    out->layers[key + ".calls"] = static_cast<double>(t[n].count);
    out->layers[key + ".ns_mean"] =
        t[n].count > 0 ? static_cast<double>(t[n].total_ns) /
                             static_cast<double>(t[n].count)
                       : 0.0;
  }
  out->layers["engine.op_s"] = op_s;

  auto percentile_us = [](std::vector<uint64_t> v, double q) {
    if (v.empty()) return 0.0;
    const size_t k = std::min(v.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(v.size())));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return static_cast<double>(v[k]) * 1e-3;
  };
  const std::vector<uint64_t> all = log.TxnDurations(-1);
  out->layers["core.txn_host_us.p50"] = percentile_us(all, 0.50);
  out->layers["core.txn_host_us.p99"] = percentile_us(all, 0.99);
  // Per-procedure medians for TPC-C's five types; zero where the
  // workload has no such procedure.
  const char* kTpccTypes[] = {"new_order", "payment", "order_status",
                              "delivery", "stock_level"};
  for (const char* type : kTpccTypes) {
    double p50 = 0;
    for (int i = 0; i < workload->NumTransactionTypes(); ++i) {
      if (std::strcmp(workload->TransactionTypeName(i), type) == 0) {
        p50 = percentile_us(log.TxnDurations(i), 0.50);
      }
    }
    out->layers[std::string("core.txn_host_us.") + type + ".p50"] = p50;
  }
}

/// Re-simulates the trace at `path` through a fresh machine built from
/// its recorded configuration, decoding blocks of events with
/// TraceReader and timing decoding and CoreSim verbs separately.
Status Resimulate(const std::string& path,
                  const std::vector<mcsim::CoreCounters>& live,
                  CellOutput* out) {
  trace::TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  mcsim::MachineConfig mc = reader.meta().recorded_config;
  mc.num_cores = reader.meta().num_workers;
  mcsim::MachineSim machine(mc);
  size_t modules_registered = 0;
  auto sync_modules = [&]() {
    const std::vector<mcsim::ModuleInfo>& mods = reader.modules();
    for (; modules_registered < mods.size(); ++modules_registered) {
      machine.modules().Register(mods[modules_registered].name,
                                 mods[modules_registered].inside_engine);
    }
  };
  sync_modules();

  std::vector<trace::TraceEvent> block(kResimBlock);
  uint64_t decode_ns = 0, sim_ns = 0, events = 0;
  bool done = false;
  while (!done) {
    size_t n = 0;
    const uint64_t t0 = NowNs();
    while (n < block.size()) {
      s = reader.Next(&block[n], &done);
      if (!s.ok()) return s;
      if (done) break;
      ++n;
    }
    const uint64_t t1 = NowNs();
    // Modules defined inside this block are registered before it runs:
    // registration only grows the table, ids are assigned in order.
    sync_modules();
    for (size_t i = 0; i < n; ++i) {
      const trace::TraceEvent& ev = block[i];
      mcsim::CoreSim& core = machine.core(ev.core);
      switch (ev.op) {
        case trace::kOpSetModule: core.SetModule(ev.module); break;
        case trace::kOpExecRegion:
          core.ExecuteRegionAt(reader.regions()[ev.region], ev.start_line);
          break;
        case trace::kOpLoad: core.Read(ev.addr, ev.size); break;
        case trace::kOpStore: core.Write(ev.addr, ev.size); break;
        case trace::kOpRetire: core.Retire(ev.n); break;
        case trace::kOpMispredict: core.Mispredict(ev.n); break;
        case trace::kOpTxnBegin: core.BeginTransaction(); break;
        default: break;  // window marks: no simulated state
      }
    }
    sim_ns += NowNs() - t1;
    decode_ns += t1 - t0;
    events += n;
  }
  if (events == 0) return Status::InvalidArgument("empty capture");
  out->layers["mcsim.ns_per_event"] =
      static_cast<double>(sim_ns) / static_cast<double>(events);
  out->layers["trace.decode_ns_per_event"] =
      static_cast<double>(decode_ns) / static_cast<double>(events);
  out->layers["trace.events"] = static_cast<double>(events);
  out->resim_identical =
      static_cast<int>(live.size()) == machine.num_cores();
  for (int c = 0; c < machine.num_cores() && out->resim_identical; ++c) {
    out->resim_identical =
        trace::CountersIdentical(machine.core(c).counters(), live[c]);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Single-machine workloads (ExperimentRunner)
// ---------------------------------------------------------------------------

int RunSingleMachine(const Args& args, CellOutput* out) {
  const WorkloadSpec& spec = *args.spec;
  const bool traced = args.mode == "traced";
  const bool capture = args.mode == "capture";

  core::ExperimentConfig cfg;
  cfg.engine = spec.engine;
  cfg.num_workers = kWorkers;
  cfg.warmup_txns = spec.warmup;
  cfg.measure_txns = spec.measure;
  cfg.seed = args.seed;
  core::TpccConfig tpcc;
  core::TpcbConfig tpcb;
  std::unique_ptr<core::Workload> bench;
  if (spec.tpcc) {
    tpcc.warehouses = kWarehouses;
    tpcc.num_partitions = kWorkers;
    bench = std::make_unique<core::TpccBenchmark>(tpcc);
  } else {
    tpcb.nominal_bytes = kTpcbBytes;
    tpcb.num_partitions = kWorkers;
    bench = std::make_unique<core::TpcbBenchmark>(tpcb);
  }

  std::unique_ptr<SpanLog> log;
  std::unique_ptr<perfbench::TimedWorkload> timed;
  core::Workload* workload = bench.get();
  if (traced) {
    log = std::make_unique<SpanLog>(kMaxStoredSpans);
    SpanLog::set_active(log.get());
    timed = std::make_unique<perfbench::TimedWorkload>(bench.get(), log.get());
    workload = timed.get();
  }

  // Run() is split at the public post-warm-up hook.
  uint64_t hook_ns = 0;
  cfg.hooks.post_warmup = [&](mcsim::MachineSim*) {
    hook_ns = NowNs();
    if (log != nullptr) {
      log->End();
      log->Begin(perfbench::kSpanMeasure);
      log->Adopt();
    }
    return Status::Ok();
  };

  trace::TraceWriter writer;
  const std::string trace_path =
      args.out_dir + "/capture-" + spec.name + ".trace";
  if (capture) {
    trace::TraceWriter::Options opts;
    opts.engine = engine::EngineKindName(spec.engine);
    opts.workload = bench->name();
    opts.seed = args.seed;
    opts.warmup_txns = spec.warmup;
    opts.measure_txns = spec.measure;
    // Attached before populate: cache warming runs simulated, and the
    // re-simulation must see those events to reproduce the counters.
    cfg.hooks.pre_populate = [&](mcsim::MachineSim* machine) {
      const Status s = writer.Open(trace_path, *machine, opts);
      if (s.ok()) machine->SetTraceSink(&writer);
      return s;
    };
  }

  const uint64_t t0 = NowNs();
  if (log != nullptr) log->Begin(perfbench::kSpanCreate);
  auto created = core::ExperimentRunner::Create(cfg, workload);
  if (log != nullptr) log->End();
  const uint64_t t1 = NowNs();
  if (!created.ok()) {
    std::fprintf(stderr, "perfbench_cell: Create: %s\n",
                 created.status().ToString().c_str());
    return 1;
  }
  core::ExperimentRunner& runner = **created;
  mcsim::MachineSim* machine = runner.machine();
  const mcsim::CoreCounters after_create = machine->TotalCounters();
  const auto setup_totals =
      log != nullptr ? log->Totals()
                     : std::array<perfbench::SpanTotals,
                                  perfbench::kNumSpanNames>{};

  perfbench::EventCounter events(machine->num_cores());
  if (traced) machine->SetTraceSink(&events);
  if (capture) runner.set_trace_sink(&writer);

  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t2 = NowNs();
  if (log != nullptr) {
    log->Begin(perfbench::kSpanRun);
    log->Begin(perfbench::kSpanWarmup);
    log->Adopt();
  }
  const auto run = runner.Run(workload);
  if (log != nullptr) {
    log->End();  // measure
    log->End();  // run
  }
  const uint64_t t3 = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  if (!run.ok()) {
    std::fprintf(stderr, "perfbench_cell: Run: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  SpanLog::set_active(nullptr);
  if (traced) machine->SetTraceSink(nullptr);
  if (capture) runner.set_trace_sink(nullptr);
  const mcsim::WindowReport& report = *run;

  const double run_s = Seconds(t3 - t2);
  const mcsim::CoreCounters after_run = machine->TotalCounters();
  const uint64_t run_txns = (spec.warmup + spec.measure) * kWorkers;
  out->host["setup_s"] = Seconds(t1 - t0);
  out->host["run_s"] = run_s;
  out->host["cell_s"] = Seconds(t3 - t0);
  out->host["sim_refs"] = static_cast<double>(Refs(after_run) - Refs(after_create));
  out->host["sim_refs_per_s"] = out->host["sim_refs"] / run_s;
  out->host["sim_txns_per_s"] = static_cast<double>(run_txns) / run_s;
  out->host["peak_rss_mb"] = PeakRssMb();
  out->host["cpu_per_wall"] = (cpu1 - cpu0) / run_s;

  out->instructions = after_run.instructions;
  out->committed = runner.committed();
  out->aborted = runner.aborts();
  out->attempted = spec.measure * kWorkers;
  const double window_cycles = AddSimMetrics({&report}, out);

  if (traced) {
    out->layers["core.warmup_s"] = Seconds(hook_ns - t2);
    out->layers["core.measure_s"] = Seconds(t3 - hook_ns);
    out->layers["core.cpu_per_wall"] = out->host["cpu_per_wall"];
    out->layers["core.setup_sim_refs"] = static_cast<double>(Refs(after_create));
    out->layers["core.populate_other_s"] =
        Seconds(t1 - t0) - Seconds(setup_totals[perfbench::kSpanRowGen].total_ns) -
        Seconds(setup_totals[perfbench::kSpanKeyOf].total_ns);
    AddSpanMetrics(*log, bench.get(), out);
    // The runner resets its span collector when the window opens.
    AddSpanShares(SpanCyclesOf(runner.spans()), window_cycles, out);
    out->layers["txn.log_records_per_txn"] =
        static_cast<double>(runner.engine()->AppendedLogRecords()) /
        static_cast<double>(run_txns);
    const mcsim::AbortBreakdown& ab = runner.abort_breakdown();
    out->layers["txn.aborts.lock_conflict"] = static_cast<double>(ab.lock_conflict);
    out->layers["txn.aborts.validation"] = static_cast<double>(ab.validation);
    out->layers["txn.aborts.partition"] = static_cast<double>(ab.partition);
    out->layers["txn.aborts.other"] =
        static_cast<double>(ab.other + ab.injected_fault);
    const perfbench::EventCounter::Counts ev = events.Sum();
    out->layers["mcsim.events.exec_region"] = static_cast<double>(ev.exec_region);
    out->layers["mcsim.events.load"] = static_cast<double>(ev.load);
    out->layers["mcsim.events.store"] = static_cast<double>(ev.store);
    out->layers["mcsim.events.retire"] = static_cast<double>(ev.retire);

    // The window report serialisation imoltp_run/imoltp_bench do per cell.
    obs::RunInfo info;
    info.engine = engine::EngineKindName(spec.engine);
    info.workload = bench->name();
    info.workers = kWorkers;
    info.warmup_txns = spec.warmup;
    info.measure_txns = spec.measure;
    info.seed = args.seed;
    info.aborts = runner.aborts();
    const uint64_t j0 = NowNs();
    for (int i = 0; i < kReportReps; ++i) {
      perfbench::ScopedSpan span(log.get(), perfbench::kSpanReportJson);
      obs::RunReportToJson(info, report, machine->config().cycle,
                           &runner.latency_histogram(), &runner.spans(),
                           nullptr, &runner.host_perf());
    }
    out->layers["obs.report_json_s"] = Seconds(NowNs() - j0) / kReportReps;

    const std::string spans_path =
        args.out_dir + "/spans-" + spec.name + ".json";
    if (!log->WriteChromeTrace(spans_path)) {
      std::fprintf(stderr, "perfbench_cell: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }

  if (capture) {
    const Status fs = writer.Finish();
    std::vector<mcsim::CoreCounters> live;
    for (int c = 0; c < machine->num_cores(); ++c) {
      live.push_back(machine->core(c).counters());
    }
    const Status rs = fs.ok() ? Resimulate(trace_path, live, out) : fs;
    std::remove(trace_path.c_str());
    if (!rs.ok()) {
      std::fprintf(stderr, "perfbench_cell: capture: %s\n",
                   rs.ToString().c_str());
      return 1;
    }
  }

  // Correctness audit, outside every timed region.
  const fault::InvariantReport audit =
      spec.tpcc ? fault::CheckTpccInvariants(runner.engine(), tpcc, kWorkers)
                : fault::CheckTpcbInvariants(
                      runner.engine(),
                      static_cast<const core::TpcbBenchmark&>(*bench),
                      kWorkers);
  out->invariants_ok = audit.ok;
  out->checksum = ChecksumDigest(audit.checksums);
  for (const std::string& v : audit.violations) {
    std::fprintf(stderr, "perfbench_cell: invariant: %s\n", v.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The 3-node cluster (dist::Cluster)
// ---------------------------------------------------------------------------

int RunCluster(const Args& args, CellOutput* out) {
  const WorkloadSpec& spec = *args.spec;
  const bool traced = args.mode == "traced";
  if (args.mode == "capture") {
    std::fprintf(stderr,
                 "perfbench_cell: capture is not available for the cluster "
                 "(its nodes populate inside Cluster::Create)\n");
    return 2;
  }
  dist::ClusterConfig cfg;
  cfg.nodes = kClusterNodes;
  cfg.warehouses_per_node = kWarehouses;
  cfg.workers_per_node = kWorkers;
  cfg.engine_kind = spec.engine;
  cfg.warmup_per_node = spec.warmup;
  cfg.txns_per_node = spec.measure;
  cfg.multi_home_pct = 10;
  cfg.seed = args.seed;
  // The cluster's own distributed tracer feeds dist.p99_net_order_share;
  // it is observer-free, which the fingerprint check confirms.
  cfg.trace.enabled = traced;
  cfg.trace.sample = 1;

  std::unique_ptr<SpanLog> log;
  if (traced) log = std::make_unique<SpanLog>(kMaxStoredSpans);

  dist::Cluster cluster(cfg);
  const uint64_t t0 = NowNs();
  if (log != nullptr) log->Begin(perfbench::kSpanCreate);
  Status s = cluster.Create();
  if (log != nullptr) log->End();
  const uint64_t t1 = NowNs();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench_cell: Create: %s\n", s.ToString().c_str());
    return 1;
  }
  const int nodes = cluster.num_nodes();
  // Nodes never reset their span collectors or counters, so span
  // shares and refs are taken as deltas across Run.
  std::vector<uint64_t> refs0(nodes);
  std::vector<SpanCycles> spans0(nodes);
  std::vector<std::vector<mcsim::CoreCounters>> cores0(nodes);
  uint64_t setup_refs = 0;
  std::vector<std::unique_ptr<perfbench::EventCounter>> events;
  for (int n = 0; n < nodes; ++n) {
    mcsim::MachineSim* m = cluster.node(n)->machine();
    refs0[n] = Refs(m->TotalCounters());
    setup_refs += refs0[n];
    spans0[n] = SpanCyclesOf(*cluster.node(n)->engine()->span_collector());
    for (int c = 0; c < m->num_cores(); ++c) {
      cores0[n].push_back(m->core(c).counters());
    }
    if (traced) {
      events.push_back(std::make_unique<perfbench::EventCounter>(m->num_cores()));
      m->SetTraceSink(events.back().get());
    }
  }

  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t2 = NowNs();
  if (log != nullptr) log->Begin(perfbench::kSpanRun);
  s = cluster.Run();
  if (log != nullptr) log->End();
  const uint64_t t3 = NowNs();
  const double cpu1 = ProcessCpuSeconds();
  if (!s.ok()) {
    std::fprintf(stderr, "perfbench_cell: Run: %s\n", s.ToString().c_str());
    return 1;
  }

  const dist::ClusterResult& result = cluster.result();
  const double run_s = Seconds(t3 - t2);
  uint64_t run_refs = 0, max_node_refs = 0, instructions = 0, log_records = 0;
  std::vector<const mcsim::WindowReport*> windows;
  SpanCycles run_span_cycles{};
  double run_cycles = 0;
  for (int n = 0; n < nodes; ++n) {
    dist::Node* node = cluster.node(n);
    mcsim::MachineSim* m = node->machine();
    m->SetTraceSink(nullptr);
    const mcsim::CoreCounters c = m->TotalCounters();
    const uint64_t refs = Refs(c) - refs0[n];
    run_refs += refs;
    max_node_refs = std::max(max_node_refs, refs);
    instructions += c.instructions;
    log_records += node->engine()->AppendedLogRecords();
    if (node->has_window()) windows.push_back(&node->window());
    const SpanCycles span_cycles =
        SpanCyclesOf(*node->engine()->span_collector());
    for (size_t k = 0; k < span_cycles.size(); ++k) {
      run_span_cycles[k] += span_cycles[k] - spans0[n][k];
    }
    for (int core = 0; core < m->num_cores(); ++core) {
      run_cycles += mcsim::SimulatedCycles(
          m->core(core).counters() - cores0[n][static_cast<size_t>(core)],
          m->config().cycle);
    }
  }
  const uint64_t run_txns = (spec.warmup + spec.measure) * nodes;
  out->host["setup_s"] = Seconds(t1 - t0);
  out->host["run_s"] = run_s;
  out->host["cell_s"] = Seconds(t3 - t0);
  out->host["sim_refs"] = static_cast<double>(run_refs);
  out->host["sim_refs_per_s"] = static_cast<double>(run_refs) / run_s;
  out->host["sim_txns_per_s"] = static_cast<double>(run_txns) / run_s;
  out->host["peak_rss_mb"] = PeakRssMb();
  out->host["cpu_per_wall"] = (cpu1 - cpu0) / run_s;

  out->instructions = instructions;
  out->committed = result.committed;
  out->aborted = result.aborted + result.rejected_dead;
  out->attempted = result.generated;
  out->invariants_ok = result.invariants.ok;
  out->checksum = ChecksumDigest(result.invariants.checksums);
  char fp[20];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(result.fingerprint));
  out->fingerprint = fp;
  for (const std::string& v : result.invariants.violations) {
    std::fprintf(stderr, "perfbench_cell: invariant: %s\n", v.c_str());
  }
  AddSimMetrics(windows, out);  // shares use Run-scoped cycles instead

  if (traced) {
    out->layers["core.cpu_per_wall"] = out->host["cpu_per_wall"];
    out->layers["core.setup_sim_refs"] = static_cast<double>(setup_refs);
    AddSpanShares(run_span_cycles, run_cycles, out);
    out->layers["txn.log_records_per_txn"] =
        static_cast<double>(log_records) / static_cast<double>(run_txns);
    out->layers["txn.aborts.other"] = static_cast<double>(result.aborted);
    perfbench::EventCounter::Counts ev;
    for (const auto& e : events) {
      const perfbench::EventCounter::Counts c = e->Sum();
      ev.exec_region += c.exec_region;
      ev.load += c.load;
      ev.store += c.store;
      ev.retire += c.retire;
    }
    out->layers["mcsim.events.exec_region"] = static_cast<double>(ev.exec_region);
    out->layers["mcsim.events.load"] = static_cast<double>(ev.load);
    out->layers["mcsim.events.store"] = static_cast<double>(ev.store);
    out->layers["mcsim.events.retire"] = static_cast<double>(ev.retire);
    out->layers["dist.messages"] = static_cast<double>(result.net.messages);
    out->layers["dist.net_bytes"] = static_cast<double>(result.net.bytes);
    out->layers["dist.multi_home"] = static_cast<double>(result.multi_home);
    out->layers["dist.p99_net_order_share"] =
        cluster.tracer().TailComposition().net_order_share;
    out->layers["dist.throughput_per_mcycle"] = result.throughput_per_mcycle;
    out->layers["dist.refs_max_node_share"] =
        run_refs > 0 ? static_cast<double>(max_node_refs) /
                           static_cast<double>(run_refs)
                     : 0.0;
    const uint64_t j0 = NowNs();
    for (int i = 0; i < kReportReps; ++i) {
      perfbench::ScopedSpan span(log.get(), perfbench::kSpanReportJson);
      dist::ClusterReportToJson(&cluster);
    }
    out->layers["obs.report_json_s"] = Seconds(NowNs() - j0) / kReportReps;
    const std::string spans_path =
        args.out_dir + "/spans-" + spec.name + ".json";
    if (!log->WriteChromeTrace(spans_path)) {
      std::fprintf(stderr, "perfbench_cell: cannot write %s\n",
                   spans_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  PinToFastestCpu();
  CellOutput out;
  const int rc = args.spec->cluster ? RunCluster(args, &out)
                                    : RunSingleMachine(args, &out);
  if (rc != 0) return rc;
  std::printf("%s\n", ToJson(args, out).c_str());
  return 0;
}
