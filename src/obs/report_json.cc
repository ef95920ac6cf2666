#include "obs/report_json.h"

#include <cstdio>

namespace imoltp::obs {

CycleAccounting ComputeCycleAccounting(
    const mcsim::WindowReport& report,
    const mcsim::CycleModelParams& params) {
  CycleAccounting acc;
  const double workers =
      report.num_workers > 0 ? report.num_workers : 1;
  const mcsim::LevelMisses& m = report.misses;  // summed over workers
  acc.frontend =
      (static_cast<double>(m.l1i) * params.l1_miss_penalty +
       static_cast<double>(m.l2i) * params.l2_miss_penalty +
       static_cast<double>(m.llc_i) * params.llc_miss_penalty) *
      params.frontend_amplification / workers;
  acc.memory =
      (static_cast<double>(m.l1d) * params.l1_miss_penalty *
           params.data_amp_l1 +
       static_cast<double>(m.l2d) * params.l2_miss_penalty *
           params.data_amp_l2 +
       static_cast<double>(m.llc_d) * params.llc_miss_penalty *
           mcsim::EffectiveLlcAmp(
               m.llc_d,
               static_cast<uint64_t>(report.instructions * workers),
               params)) /
          workers +
      report.tlb_misses * params.tlb_walk_cycles;
  acc.bad_speculation = report.mispredictions * params.mispredict_penalty;
  acc.retiring = report.base_cycles;
  return acc;
}

namespace {

void StallsToJson(JsonWriter& w, const mcsim::StallBreakdown& b) {
  w.BeginObject();
  for (int i = 0; i < 6; ++i) {
    w.KeyValue(mcsim::StallBreakdown::kNames[i], b.stalls[i]);
  }
  w.KeyValue("total", b.total());
  w.EndObject();
}

void HistogramToJson(JsonWriter& w, const LatencyHistogram& h) {
  w.BeginObject();
  w.KeyValue("count", h.count());
  w.KeyValue("mean", h.mean());
  w.KeyValue("min", h.min());
  w.KeyValue("p50", h.p50());
  w.KeyValue("p90", h.p90());
  w.KeyValue("p99", h.p99());
  w.KeyValue("max", h.max());
  w.Key("bins");
  w.BeginArray();
  for (int i = 0; i < LatencyHistogram::kNumBins; ++i) {
    if (h.bins()[i] == 0) continue;
    w.BeginObject();
    w.KeyValue("lo", LatencyHistogram::BinLowerBound(i));
    w.KeyValue("hi", LatencyHistogram::BinUpperBound(i));
    w.KeyValue("count", h.bins()[i]);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void SpansToJson(JsonWriter& w, const SpanCollector& spans,
                 double window_cycles_total) {
  w.BeginObject();
  for (int i = 0; i < kNumSpanKinds; ++i) {
    const SpanKind kind = static_cast<SpanKind>(i);
    const SpanStats& s = spans.stats(kind);
    w.Key(SpanKindName(kind));
    w.BeginObject();
    w.KeyValue("cycles", s.cycles);
    w.KeyValue("count", s.count);
    w.KeyValue("fraction_of_window",
               window_cycles_total > 0 ? s.cycles / window_cycles_total
                                       : 0.0);
    w.EndObject();
  }
  w.KeyValue("total_cycles", spans.total_cycles());
  w.EndObject();
}

void RobustnessToJson(JsonWriter& w, const RobustnessInfo& r) {
  w.BeginObject();
  w.Key("aborts");
  w.BeginObject();
  w.KeyValue("total", r.aborts.total);
  w.KeyValue("lock_conflict", r.aborts.lock_conflict);
  w.KeyValue("validation", r.aborts.validation);
  w.KeyValue("partition", r.aborts.partition);
  w.KeyValue("injected_fault", r.aborts.injected_fault);
  w.KeyValue("other", r.aborts.other);
  w.EndObject();
  w.KeyValue("committed", r.committed);
  w.Key("retry");
  w.BeginObject();
  w.KeyValue("max_attempts", r.retry_max_attempts);
  w.KeyValue("retries", r.retries);
  w.KeyValue("successes", r.retry_successes);
  w.KeyValue("rejections", r.retry_rejections);
  w.EndObject();
  w.Key("faults");
  w.BeginObject();
  w.KeyValue("enabled", r.faults_enabled);
  w.KeyValue("seed", r.fault_seed);
  w.KeyValue("crash_point", r.crash_point);
  w.Key("points");
  w.BeginObject();
  for (const fault::FaultPointStats& p : r.fault_points) {
    w.Key(p.point);
    w.BeginObject();
    w.KeyValue("hits", p.hits);
    w.KeyValue("fires", p.fires);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  w.EndObject();
}

void RecoveryToJson(JsonWriter& w, const RecoveryInfo& r) {
  w.BeginObject();
  w.Key("checkpoint");
  w.BeginObject();
  w.KeyValue("enabled", r.checkpoint_enabled);
  w.KeyValue("every_n_ticks", r.checkpoint_every_n_ticks);
  w.KeyValue("pages_per_step", r.checkpoint_pages_per_step);
  w.KeyValue("retain", r.checkpoint_retain);
  w.KeyValue("begun", r.checkpoint.begun);
  w.KeyValue("completed", r.checkpoint.completed);
  w.KeyValue("captured_pages", r.checkpoint.captured_pages);
  w.KeyValue("captured_bytes", r.checkpoint.captured_bytes);
  w.KeyValue("truncations", r.checkpoint.truncations);
  w.KeyValue("truncated_records", r.checkpoint.truncated_records);
  w.EndObject();
  w.KeyValue("log_truncation_lsn", r.log_truncation_lsn);
  w.KeyValue("appended_log_records", r.appended_log_records);
  w.KeyValue("recovered", r.recovered);
  if (r.recovered) {
    w.Key("stats");
    w.BeginObject();
    w.KeyValue("checkpoints_available", r.recovery.checkpoints_available);
    w.KeyValue("checkpoints_discarded", r.recovery.checkpoints_discarded);
    w.KeyValue("torn_pages", r.recovery.torn_pages);
    w.KeyValue("used_checkpoint", r.recovery.used_checkpoint);
    w.KeyValue("checkpoint_id", r.recovery.checkpoint_id);
    w.KeyValue("restored_pages", r.recovery.restored_pages);
    w.KeyValue("restored_bytes", r.recovery.restored_bytes);
    w.KeyValue("index_entries", r.recovery.index_entries);
    w.KeyValue("replayed_records", r.recovery.replayed_records);
    w.KeyValue("undone_records", r.recovery.undone_records);
    w.KeyValue("truncation_lsn", r.recovery.truncation_lsn);
    w.EndObject();
  }
  w.EndObject();
}

}  // namespace

void WindowReportToJson(JsonWriter& w, const mcsim::WindowReport& report,
                        const mcsim::CycleModelParams& params) {
  w.BeginObject();
  w.KeyValue("num_workers", report.num_workers);
  w.KeyValue("instructions", report.instructions);
  w.KeyValue("cycles", report.cycles);
  w.KeyValue("transactions", report.transactions);
  w.KeyValue("mispredictions", report.mispredictions);
  w.KeyValue("base_cycles", report.base_cycles);
  w.KeyValue("tlb_misses", report.tlb_misses);
  w.KeyValue("ipc", report.ipc);
  w.KeyValue("instructions_per_txn", report.instructions_per_txn);
  w.KeyValue("cycles_per_txn", report.cycles_per_txn);

  w.Key("misses");
  w.BeginObject();
  w.KeyValue("l1i", report.misses.l1i);
  w.KeyValue("l2i", report.misses.l2i);
  w.KeyValue("llc_i", report.misses.llc_i);
  w.KeyValue("l1d", report.misses.l1d);
  w.KeyValue("l2d", report.misses.l2d);
  w.KeyValue("llc_d", report.misses.llc_d);
  w.EndObject();

  w.Key("stalls_per_kinstr");
  StallsToJson(w, report.stalls_per_kinstr);
  w.Key("stalls_per_txn");
  StallsToJson(w, report.stalls_per_txn);

  w.KeyValue("engine_cycle_fraction", report.engine_cycle_fraction);
  w.Key("module_breakdown");
  w.BeginObject();
  for (const mcsim::ModuleShare& share : report.module_breakdown) {
    w.Key(share.name);
    w.BeginObject();
    w.KeyValue("inside_engine", share.inside_engine);
    w.KeyValue("cycles", share.cycles);
    w.KeyValue("fraction", share.fraction);
    w.EndObject();
  }
  w.EndObject();

  w.Key("txn_module_breakdown");
  w.BeginObject();
  for (const mcsim::TxnTypeShare& row : report.txn_module_matrix) {
    w.Key(row.txn_type);
    w.BeginObject();
    w.KeyValue("count", row.count);
    w.KeyValue("cycles", row.cycles);
    w.KeyValue("fraction", row.fraction);
    w.Key("modules");
    w.BeginObject();
    for (const mcsim::ModuleShare& share : row.modules) {
      w.Key(share.name);
      w.BeginObject();
      w.KeyValue("inside_engine", share.inside_engine);
      w.KeyValue("cycles", share.cycles);
      w.KeyValue("fraction", share.fraction);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();

  const CycleAccounting acc = ComputeCycleAccounting(report, params);
  w.Key("cycle_accounting");
  w.BeginObject();
  w.KeyValue("retiring", acc.retiring);
  w.KeyValue("frontend", acc.frontend);
  w.KeyValue("memory", acc.memory);
  w.KeyValue("bad_speculation", acc.bad_speculation);
  const double total = acc.total();
  w.KeyValue("retiring_fraction",
             total > 0 ? acc.retiring / total : 0.0);
  w.KeyValue("frontend_fraction",
             total > 0 ? acc.frontend / total : 0.0);
  w.KeyValue("memory_fraction", total > 0 ? acc.memory / total : 0.0);
  w.KeyValue("bad_speculation_fraction",
             total > 0 ? acc.bad_speculation / total : 0.0);
  w.EndObject();

  w.EndObject();
}

std::string RunReportToJson(const RunInfo& info,
                            const mcsim::WindowReport& report,
                            const mcsim::CycleModelParams& params,
                            const LatencyHistogram* latency,
                            const SpanCollector* spans,
                            const RobustnessInfo* robustness,
                            const HostPerf* host,
                            const RecoveryInfo* recovery) {
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("schema_version", kReportSchemaVersion);

  w.Key("meta");
  w.BeginObject();
  w.KeyValue("engine", info.engine);
  w.KeyValue("workload", info.workload);
  w.KeyValue("db_bytes", info.db_bytes);
  w.KeyValue("rows", info.rows);
  w.KeyValue("warehouses", info.warehouses);
  w.KeyValue("workers", info.workers);
  w.KeyValue("warmup_txns", info.warmup_txns);
  w.KeyValue("measure_txns", info.measure_txns);
  w.KeyValue("seed", info.seed);
  w.KeyValue("aborts", info.aborts);
  w.Key("trace");
  w.BeginObject();
  w.KeyValue("file_id", info.trace_file_id);
  w.KeyValue("replayed", info.replayed);
  w.EndObject();
  w.EndObject();

  w.Key("window");
  WindowReportToJson(w, report, params);

  // Sampled time-series (schema v4): absent when sampling was off, so
  // unsampled reports — goldens included — are byte-for-byte what v3
  // produced plus the empty txn_module_breakdown.
  if (report.sample_every > 0) {
    w.Key("timeseries");
    w.BeginObject();
    w.KeyValue("sample_every", report.sample_every);
    w.Key("convergence");
    w.BeginObject();
    w.KeyValue("checked", report.convergence.checked);
    w.KeyValue("first_half_ipc", report.convergence.first_half_ipc);
    w.KeyValue("second_half_ipc", report.convergence.second_half_ipc);
    w.KeyValue("divergence", report.convergence.divergence);
    w.KeyValue("tolerance", report.convergence.tolerance);
    w.KeyValue("converged", report.convergence.converged);
    w.EndObject();
    // Per-module series (schema v5): names for every bucket's
    // module_cycles entries. Absent unless the sampler ran per-module.
    if (!report.sampled_module_names.empty()) {
      w.Key("sampled_modules");
      w.BeginArray();
      for (const std::string& name : report.sampled_module_names) {
        w.Value(name);
      }
      w.EndArray();
    }
    w.Key("cores");
    w.BeginArray();
    for (const mcsim::CoreSeries& series : report.timeseries) {
      w.BeginObject();
      w.KeyValue("core", series.core);
      w.KeyValue("dropped", series.dropped);
      w.Key("buckets");
      w.BeginArray();
      for (const mcsim::SeriesBucket& b : series.buckets) {
        w.BeginObject();
        w.KeyValue("t0", b.t0);
        w.KeyValue("t1", b.t1);
        w.KeyValue("instructions", b.instructions);
        w.KeyValue("transactions", b.transactions);
        w.KeyValue("aborted_txns", b.aborted_txns);
        w.KeyValue("mispredictions", b.mispredictions);
        w.KeyValue("tlb_misses", b.tlb_misses);
        w.KeyValue("model_cycles", b.model_cycles);
        w.KeyValue("ipc", b.ipc);
        w.KeyValue("stalls_per_kinstr", b.stalls_per_kinstr.total());
        w.KeyValue("abort_rate", b.abort_rate);
        if (!b.module_cycles.empty()) {
          w.Key("module_cycles");
          w.BeginArray();
          for (double cycles : b.module_cycles) w.Value(cycles);
          w.EndArray();
        }
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }

  if (latency != nullptr) {
    w.Key("latency_cycles");
    HistogramToJson(w, *latency);
  }
  if (spans != nullptr) {
    // Window cycles are per-worker averages; spans accumulate over all
    // workers, so scale to the window's total for the fraction.
    const double window_total =
        report.cycles * (report.num_workers > 0 ? report.num_workers : 1);
    w.Key("spans");
    SpansToJson(w, *spans, window_total);
  }
  if (robustness != nullptr) {
    w.Key("robustness");
    RobustnessToJson(w, *robustness);
  }

  // Checkpoint / recovery accounting (schema v7). Deterministic, so
  // imoltp_diff compares it exactly. Absent unless
  // checkpointing was enabled.
  if (recovery != nullptr) {
    w.Key("recovery");
    RecoveryToJson(w, *recovery);
  }

  // Host-side self-observability (schema v5). Inherently
  // non-deterministic — imoltp_diff ignores this whole subtree, and no
  // determinism fingerprint covers it. Absent on replays.
  if (host != nullptr) {
    w.Key("host");
    HostPerfToJson(w, *host);
  }

  w.EndObject();
  return w.TakeString();
}

Status WriteJsonFile(const std::string& path, const std::string& json) {
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
    return Status::Ok();
  }
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal("cannot open " + tmp + " for writing");
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  if (std::fclose(f) != 0 || written != json.size()) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace imoltp::obs
