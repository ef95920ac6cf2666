#include "fault/chaos.h"

#include <algorithm>
#include <memory>

#include "common/seed.h"
#include "core/tpcb.h"
#include "core/tpcc.h"
#include "fault/fingerprint.h"
#include "obs/json.h"

namespace imoltp::fault {

StatusOr<ChaosReport> RunChaos(const ChaosOptions& opt) {
  core::WorkloadKind wkind;
  if (!core::ParseWorkload(opt.workload, &wkind)) {
    return Status::InvalidArgument(
        "unknown chaos workload: " + opt.workload +
        " (choices: " + core::WorkloadChoices() + ")");
  }
  if (wkind != core::WorkloadKind::kTpcb &&
      wkind != core::WorkloadKind::kTpcc) {
    return Status::InvalidArgument(
        "chaos audits invariants only for tpcb and tpcc, not " +
        opt.workload);
  }
  if (opt.cycles < 1) {
    return Status::InvalidArgument("chaos needs at least one cycle");
  }
  if (opt.workers < 1) {
    return Status::InvalidArgument("chaos needs at least one worker");
  }
  core::TpccConfig tpcc_cfg;
  tpcc_cfg.warehouses = opt.tpcc_warehouses;
  tpcc_cfg.orders_per_district = opt.tpcc_orders_per_district;
  tpcc_cfg.num_partitions = opt.workers;
  if (wkind == core::WorkloadKind::kTpcc) {
    const Status valid = tpcc_cfg.Validate();
    if (!valid.ok()) return valid;
  }

  ChaosReport report;
  uint64_t agg = kFnvOffset;

  for (int c = 0; c < opt.cycles; ++c) {
    ChaosCycleResult cyc;
    cyc.cycle = c;

    // Fresh injector per cycle, seeded from the campaign seed and the
    // cycle index: re-running the campaign replays every schedule.
    FaultInjector inj(DeriveSeed(opt.seed, static_cast<uint64_t>(c),
                                 SeedStream::kChaosInjector));
    for (const auto& [name, point] : opt.points) inj.Arm(name, point);

    // Fresh workload per cycle: its history-id counters restart at
    // zero, which same-seed determinism depends on.
    std::unique_ptr<core::Workload> workload;
    core::TpcbBenchmark* tpcb = nullptr;
    if (wkind == core::WorkloadKind::kTpcb) {
      core::TpcbConfig cfg;
      cfg.nominal_bytes = opt.tpcb_nominal_bytes;
      cfg.num_partitions = opt.workers;
      auto bench = std::make_unique<core::TpcbBenchmark>(cfg);
      tpcb = bench.get();
      workload = std::move(bench);
    } else {
      workload = std::make_unique<core::TpccBenchmark>(tpcc_cfg);
    }

    core::ExperimentConfig cfg;
    cfg.engine = opt.engine;
    cfg.num_workers = opt.workers;
    cfg.warmup_txns = opt.warmup_txns;
    cfg.measure_txns = opt.measure_txns;
    cfg.seed = DeriveSeed(opt.seed, static_cast<uint64_t>(c),
                          SeedStream::kChaosRun);
    cfg.parallel_mode = opt.mode;
    cfg.retry = opt.retry;
    cfg.machine_config = opt.machine_config;
    cfg.engine_options.log_buffer_bytes = opt.log_buffer_bytes;
    cfg.engine_options.fault_injector = &inj;
    cfg.engine_options.checkpoint = opt.checkpoint;

    auto runner = core::ExperimentRunner::Create(cfg, workload.get());
    if (!runner.ok()) return runner.status();
    core::ExperimentRunner* r = runner->get();
    auto window = r->Run(workload.get());
    if (!window.ok()) return window.status();

    cyc.committed = r->committed();
    cyc.aborts = r->aborts();
    cyc.breakdown = r->abort_breakdown();
    cyc.retry = r->retry_stats();
    cyc.crash_point = inj.crash_point();

    // What the "disk" still holds. A post-commit crash happens after
    // the commit was acknowledged but possibly before the background
    // writer drained the ring — only the flushed prefix survives. The
    // earlier crash points fire before the commit record exists, so
    // the full stable log is the honest device image for them.
    engine::Engine* live = r->engine();
    std::vector<txn::LogRecord> log =
        cyc.crash_point == kCrashPostCommit ? live->FlushedLog()
                                            : live->StableLog();

    // Seeded log surgery: when log.truncate_tail is armed, the device
    // lost a suffix of whatever it had.
    for (const auto& [name, point] : opt.points) {
      if (name != kLogTruncateTail) continue;
      const uint64_t max_drop =
          std::min<uint64_t>(log.size(), 16);
      cyc.dropped_records = inj.Uniform(max_drop + 1);
      log.resize(log.size() - cyc.dropped_records);
      break;
    }
    cyc.log_records = log.size();

    // The simulated checkpoint device: a copy of the retained complete
    // checkpoints. The `ckpt.torn_page` point models the crash
    // interrupting the checkpoint writer mid-page — one page of the
    // newest complete checkpoint lands half-written on the copy (never
    // in the live manager). Recovery must catch the bad checksum and
    // fall back to the previous complete checkpoint.
    std::vector<txn::CheckpointImage> device;
    const txn::CheckpointManager* cm = live->checkpoints();
    if (cm != nullptr) {
      device = cm->DeviceImage();
      cyc.checkpoints_completed = cm->stats().completed;
      cyc.truncated_records = cm->stats().truncated_records;
    }
    cyc.appended_records = live->AppendedLogRecords();
    cyc.log_truncation_lsn = live->LogTruncationLsn();
    // Tearing requires a predecessor: truncation only runs after a
    // checkpoint's device write is fsync'd, so a torn page in the only
    // complete checkpoint would contradict the write barrier that
    // allowed its truncation. With >= 2 retained, the newest can land
    // torn (its fsync raced the crash) while the older one — whose
    // begin LSN anchors the retained log — stays intact.
    if (device.size() >= 2 && inj.Fires(kCkptTornPage)) {
      txn::CheckpointImage& newest = device.back();
      std::vector<txn::CheckpointPage*> pages;
      for (txn::CheckpointSliceImage& si : newest.slices) {
        for (txn::CheckpointPage& pg : si.pages) pages.push_back(&pg);
      }
      if (!pages.empty()) {
        txn::TearPage(pages[inj.Uniform(pages.size())]);
        ++cyc.torn_pages_injected;
      }
    }

    // Recovery: a brand-new machine and engine, repopulated from the
    // same table definitions. With checkpointing: restore the newest
    // usable checkpoint, REDO the retained tail, UNDO losers. Without:
    // full-log REDO. Recovery itself is not under test, so it runs
    // without the injector.
    mcsim::MachineConfig mc = opt.machine_config;
    mc.num_cores = opt.workers;
    mcsim::MachineSim machine2(mc);
    engine::EngineOptions eopts = cfg.engine_options;
    eopts.num_partitions = opt.workers;
    eopts.fault_injector = nullptr;
    std::unique_ptr<engine::Engine> recovered =
        engine::CreateEngine(opt.engine, &machine2, eopts);
    Status s = recovered->CreateDatabase(workload->Tables());
    if (!s.ok()) return s;
    if (cm != nullptr) {
      s = recovered->Recover(device, log, cyc.log_truncation_lsn,
                             &cyc.recovery);
    } else {
      s = recovered->Replay(log);
      cyc.recovery.replayed_records = log.size();
    }
    if (!s.ok()) return s;

    if (tpcb != nullptr) {
      cyc.recovered =
          CheckTpcbInvariants(recovered.get(), *tpcb, opt.workers);
    } else {
      cyc.recovered =
          CheckTpccInvariants(recovered.get(), tpcc_cfg, opt.workers);
    }

    // Without a crash the live database must also be consistent (a
    // crash leaves it mid-transaction by design — only its log is
    // meaningful then). Disarm first so the audit runs fault-free.
    if (cyc.crash_point.empty()) {
      inj.DisarmAll();
      if (tpcb != nullptr) {
        cyc.live = CheckTpcbInvariants(live, *tpcb, opt.workers);
      } else {
        cyc.live = CheckTpccInvariants(live, tpcc_cfg, opt.workers);
      }
      cyc.live_checked = true;
    }

    cyc.fault_stats = inj.Stats();

    uint64_t fp = kFnvOffset;
    fp = FnvMix(fp, cyc.committed);
    fp = FnvMix(fp, cyc.breakdown.total);
    fp = FnvMix(fp, cyc.breakdown.lock_conflict);
    fp = FnvMix(fp, cyc.breakdown.validation);
    fp = FnvMix(fp, cyc.breakdown.partition);
    fp = FnvMix(fp, cyc.breakdown.injected_fault);
    fp = FnvMix(fp, cyc.breakdown.other);
    fp = FnvMix(fp, cyc.retry.retries);
    fp = FnvMix(fp, cyc.retry.retry_successes);
    fp = FnvMix(fp, cyc.retry.retry_rejections);
    fp = FnvString(fp, cyc.crash_point);
    fp = FnvMix(fp, cyc.dropped_records);
    fp = FnvMix(fp, cyc.appended_records);
    fp = FnvMix(fp, cyc.truncated_records);
    fp = FnvMix(fp, cyc.log_truncation_lsn);
    fp = FnvMix(fp, cyc.checkpoints_completed);
    fp = FnvMix(fp, cyc.torn_pages_injected);
    fp = FnvMix(fp, cyc.recovery.used_checkpoint ? 1u : 0u);
    fp = FnvMix(fp, cyc.recovery.checkpoint_id);
    fp = FnvMix(fp, cyc.recovery.checkpoints_discarded);
    fp = FnvMix(fp, cyc.recovery.torn_pages);
    fp = FnvMix(fp, cyc.recovery.restored_pages);
    fp = FnvMix(fp, cyc.recovery.index_entries);
    fp = FnvMix(fp, cyc.recovery.replayed_records);
    fp = FnvMix(fp, cyc.recovery.undone_records);
    fp = FnvLog(fp, log);
    fp = FnvInvariants(fp, cyc.recovered);
    if (cyc.live_checked) fp = FnvInvariants(fp, cyc.live);
    cyc.fingerprint = fp;
    agg = FnvMix(agg, fp);

    if (!cyc.recovered.ok || (cyc.live_checked && !cyc.live.ok)) {
      report.ok = false;
    }
    report.cycles.push_back(std::move(cyc));
  }

  report.fingerprint = agg;
  return report;
}

std::string ChaosReportToJson(const ChaosOptions& opt,
                              const ChaosReport& report) {
  obs::JsonWriter w;
  w.BeginObject();
  w.KeyValue("schema", "imoltp.chaos.v2");
  w.Key("options");
  w.BeginObject();
  w.KeyValue("engine", engine::EngineKindName(opt.engine));
  w.KeyValue("workload", opt.workload);
  w.KeyValue("cycles", opt.cycles);
  w.KeyValue("workers", opt.workers);
  w.KeyValue("warmup_txns", opt.warmup_txns);
  w.KeyValue("measure_txns", opt.measure_txns);
  w.KeyValue("seed", opt.seed);
  w.KeyValue("mode", core::ParallelModeName(opt.mode));
  w.KeyValue("retry_max_attempts", opt.retry.max_attempts);
  w.KeyValue("retry_backoff_cycles", opt.retry.backoff_cycles);
  w.KeyValue("log_buffer_bytes",
             static_cast<uint64_t>(opt.log_buffer_bytes));
  w.Key("checkpoint");
  w.BeginObject();
  w.KeyValue("enabled", opt.checkpoint.enabled);
  w.KeyValue("every_n_ticks", opt.checkpoint.every_n_ticks);
  w.KeyValue("pages_per_step", opt.checkpoint.pages_per_step);
  w.KeyValue("retain", opt.checkpoint.retain);
  w.EndObject();
  w.Key("points");
  w.BeginObject();
  for (const auto& [name, point] : opt.points) {
    w.Key(name);
    w.BeginObject();
    w.KeyValue("probability", point.probability);
    w.KeyValue("nth_hit", point.nth_hit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();

  w.KeyValue("ok", report.ok);
  w.KeyValue("fingerprint", report.fingerprint);
  w.Key("cycles");
  w.BeginArray();
  for (const ChaosCycleResult& c : report.cycles) {
    w.BeginObject();
    w.KeyValue("cycle", c.cycle);
    w.KeyValue("committed", c.committed);
    w.KeyValue("aborts", c.aborts);
    w.Key("abort_breakdown");
    w.BeginObject();
    w.KeyValue("total", c.breakdown.total);
    w.KeyValue("lock_conflict", c.breakdown.lock_conflict);
    w.KeyValue("validation", c.breakdown.validation);
    w.KeyValue("partition", c.breakdown.partition);
    w.KeyValue("injected_fault", c.breakdown.injected_fault);
    w.KeyValue("other", c.breakdown.other);
    w.EndObject();
    w.Key("retry");
    w.BeginObject();
    w.KeyValue("retries", c.retry.retries);
    w.KeyValue("successes", c.retry.retry_successes);
    w.KeyValue("rejections", c.retry.retry_rejections);
    w.EndObject();
    w.KeyValue("crash_point", c.crash_point);
    w.KeyValue("log_records", c.log_records);
    w.KeyValue("dropped_records", c.dropped_records);
    w.KeyValue("appended_records", c.appended_records);
    w.KeyValue("truncated_records", c.truncated_records);
    w.KeyValue("log_truncation_lsn", c.log_truncation_lsn);
    w.KeyValue("checkpoints_completed", c.checkpoints_completed);
    w.KeyValue("torn_pages_injected", c.torn_pages_injected);
    w.Key("recovery");
    w.BeginObject();
    w.KeyValue("used_checkpoint", c.recovery.used_checkpoint);
    w.KeyValue("checkpoint_id", c.recovery.checkpoint_id);
    w.KeyValue("checkpoints_available", c.recovery.checkpoints_available);
    w.KeyValue("checkpoints_discarded", c.recovery.checkpoints_discarded);
    w.KeyValue("torn_pages", c.recovery.torn_pages);
    w.KeyValue("restored_pages", c.recovery.restored_pages);
    w.KeyValue("restored_bytes", c.recovery.restored_bytes);
    w.KeyValue("index_entries", c.recovery.index_entries);
    w.KeyValue("replayed_records", c.recovery.replayed_records);
    w.KeyValue("undone_records", c.recovery.undone_records);
    w.KeyValue("truncation_lsn", c.recovery.truncation_lsn);
    w.EndObject();
    w.Key("recovered");
    InvariantsToJson(w, c.recovered);
    if (c.live_checked) {
      w.Key("live");
      InvariantsToJson(w, c.live);
    }
    w.Key("fault_points");
    w.BeginObject();
    for (const FaultPointStats& p : c.fault_stats) {
      w.Key(p.point);
      w.BeginObject();
      w.KeyValue("hits", p.hits);
      w.KeyValue("fires", p.fires);
      w.EndObject();
    }
    w.EndObject();
    w.KeyValue("fingerprint", c.fingerprint);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.TakeString();
}

}  // namespace imoltp::fault
