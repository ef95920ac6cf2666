#include "dist/cluster_json.h"

#include <cstdio>

#include "obs/json.h"
#include "obs/report_json.h"

namespace imoltp::dist {

namespace {

using obs::JsonWriter;

std::string HexFingerprint(uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fp));
  return buf;
}

std::string NodeKey(int n) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d", n);
  return buf;
}

void MetaToJson(JsonWriter& w, const char* kind,
                const ClusterConfig& c) {
  w.Key("meta");
  w.BeginObject();
  w.KeyValue("kind", kind);
  w.KeyValue("engine", engine::EngineKindName(c.engine_kind));
  w.KeyValue("nodes", c.nodes);
  w.KeyValue("warehouses_per_node", c.warehouses_per_node);
  w.KeyValue("workers_per_node", c.workers_per_node);
  w.KeyValue("orders_per_district", c.orders_per_district);
  w.KeyValue("warmup_per_node", c.warmup_per_node);
  w.KeyValue("txns_per_node", c.txns_per_node);
  w.KeyValue("multi_home_pct", c.multi_home_pct);
  w.KeyValue("batch_per_round", c.batch_per_round);
  w.KeyValue("seed", c.seed);
  w.Key("net");
  w.BeginObject();
  w.KeyValue("latency_cycles", c.net.latency_cycles);
  w.KeyValue("cycles_per_byte", c.net.cycles_per_byte);
  w.EndObject();
  w.Key("chaos");
  w.BeginObject();
  w.KeyValue("enabled", c.chaos.enabled);
  w.KeyValue("probability", c.chaos.probability);
  w.KeyValue("nth_hit", c.chaos.nth_hit);
  w.KeyValue("recover", c.chaos.recover);
  w.EndObject();
  w.EndObject();
}

void CountsToJson(JsonWriter& w, const ClusterResult& r) {
  w.Key("counts");
  w.BeginObject();
  w.KeyValue("generated", r.generated);
  w.KeyValue("committed", r.committed);
  w.KeyValue("aborted", r.aborted);
  w.KeyValue("single_home", r.single_home);
  w.KeyValue("multi_home", r.multi_home);
  w.KeyValue("rejected_dead", r.rejected_dead);
  w.EndObject();
}

void NetToJson(JsonWriter& w, const NetworkStats& n) {
  w.Key("net");
  w.BeginObject();
  w.KeyValue("messages", n.messages);
  w.KeyValue("bytes", n.bytes);
  w.KeyValue("latency_charged", n.latency_charged);
  w.EndObject();
}

void ChaosToJson(JsonWriter& w, const ClusterResult& r) {
  w.Key("chaos");
  w.BeginObject();
  w.KeyValue("died_node", r.died_node);
  w.KeyValue("death_round", r.death_round);
  w.KeyValue("recovered", r.recovered);
  w.Key("fault_points");
  w.BeginArray();
  for (const fault::FaultPointStats& p : r.fault_points) {
    w.BeginObject();
    w.KeyValue("point", p.point);
    w.KeyValue("hits", p.hits);
    w.KeyValue("fires", p.fires);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
}

void HistCyclesToJson(JsonWriter& w, const char* key,
                      const obs::LatencyHistogram& h) {
  w.Key(key);
  w.BeginObject();
  w.KeyValue("p50", h.p50());
  w.KeyValue("p99", h.p99());
  w.KeyValue("mean", h.mean());
  w.EndObject();
}

// The `cluster.tracing` section (schema v8). Counts first — exact
// under the `cluster` diff rule, they ARE the determinism contract —
// then the cycle-valued subtrees (`stages.cycles`,
// `critical_path.cycles`, `p99_composition`, `p99_net_order_share`)
// that get jitter-tolerant rules of their own.
void TracingToJson(JsonWriter& w, const Cluster& cluster) {
  const TxnTracer& tr = cluster.tracer();
  w.Key("tracing");
  w.BeginObject();
  w.KeyValue("enabled", tr.enabled());
  w.KeyValue("sample", tr.config().sample);
  w.KeyValue("ring_capacity",
             static_cast<uint64_t>(tr.config().ring_capacity));
  w.KeyValue("traced", tr.traced());
  w.KeyValue("committed", tr.committed());
  w.KeyValue("aborted", tr.aborted());
  w.KeyValue("orphaned", tr.orphaned());
  w.KeyValue("single_home", tr.single_home());
  w.KeyValue("multi_home", tr.multi_home());
  w.KeyValue("dropped_ring", tr.dropped_ring());
  w.KeyValue("order_batches", cluster.orderer().batches());
  w.KeyValue("max_order_batch",
             static_cast<uint64_t>(cluster.orderer().max_batch_size()));

  w.Key("stages");
  w.BeginObject();
  w.Key("counts");
  w.BeginObject();
  for (int s = 0; s < kNumTraceStages; ++s) {
    const auto stage = static_cast<TxnTraceStage>(s);
    w.KeyValue(TxnTraceStageName(stage), tr.stage_count(stage));
  }
  w.EndObject();
  w.Key("cycles");
  w.BeginObject();
  for (int s = 0; s < kNumTraceStages; ++s) {
    const auto stage = static_cast<TxnTraceStage>(s);
    HistCyclesToJson(w, TxnTraceStageName(stage), tr.stage_hist(stage));
  }
  w.EndObject();
  w.EndObject();

  w.Key("critical_path");
  w.BeginObject();
  w.Key("counts");
  w.BeginObject();
  w.KeyValue("single_home", tr.critical_single_home().count());
  w.KeyValue("multi_home", tr.critical_multi_home().count());
  w.EndObject();
  w.Key("cycles");
  w.BeginObject();
  HistCyclesToJson(w, "single_home", tr.critical_single_home());
  HistCyclesToJson(w, "multi_home", tr.critical_multi_home());
  w.EndObject();
  w.EndObject();

  const TraceTailComposition comp = tr.TailComposition();
  w.KeyValue("p99_tail_traces", comp.tail_traces);
  w.Key("p99_composition");
  w.BeginObject();
  w.KeyValue("forward", comp.forward);
  w.KeyValue("order_wait", comp.order_wait);
  w.KeyValue("deliver", comp.deliver);
  w.KeyValue("exec", comp.exec);
  w.KeyValue("ack", comp.ack);
  w.EndObject();
  w.KeyValue("p99_net_order_share", comp.net_order_share);
  w.EndObject();
}

}  // namespace

std::string ClusterReportToJson(Cluster* cluster) {
  const ClusterConfig& cfg = cluster->config();
  const ClusterResult& r = cluster->result();
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("schema_version",
             static_cast<int64_t>(obs::kReportSchemaVersion));
  MetaToJson(w, "cluster", cfg);

  w.Key("cluster");
  w.BeginObject();
  CountsToJson(w, r);
  NetToJson(w, r.net);
  ChaosToJson(w, r);
  TracingToJson(w, *cluster);
  w.KeyValue("fingerprint", HexFingerprint(r.fingerprint));
  w.Key("invariants");
  fault::InvariantsToJson(w, r.invariants);

  w.Key("per_node");
  w.BeginObject();
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    const Node* node = cluster->node(n);
    const NodeStats& st = node->stats();
    w.Key(NodeKey(n));
    w.BeginObject();
    w.KeyValue("committed", st.committed);
    w.KeyValue("aborted", st.aborted);
    w.KeyValue("single_home", st.single_home);
    w.KeyValue("multi_home", st.multi_home);
    w.KeyValue("fragments", st.fragments);
    w.KeyValue("stall_cycles", st.stall_cycles);
    w.KeyValue("alive", node->alive());
    w.KeyValue("ever_died", node->ever_died());
    w.KeyValue("death_round", node->death_round());
    w.EndObject();
  }
  w.EndObject();

  // Cycle-model values: jitter-tolerant diff rules apply from here on.
  w.KeyValue("max_window_cycles", r.max_window_cycles);
  w.KeyValue("throughput_per_mcycle", r.throughput_per_mcycle);

  w.Key("windows");
  w.BeginObject();
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    Node* node = cluster->node(n);
    if (!node->has_window()) continue;
    w.Key(NodeKey(n));
    obs::WindowReportToJson(w, node->window(),
                            cfg.machine_config.cycle);
  }
  w.EndObject();

  w.EndObject();  // cluster

  // Host cost of Run: never deterministic, ignored by imoltp_diff.
  const ClusterHostPerf& host = cluster->host_perf();
  w.Key("host");
  w.BeginObject();
  w.KeyValue("run_seconds", host.run_seconds);
  w.KeyValue("simulated_refs", host.simulated_refs);
  w.KeyValue("refs_per_sec", host.refs_per_second);
  w.KeyValue("peak_rss_bytes", host.peak_rss_bytes);
  w.EndObject();
  w.EndObject();
  return w.TakeString();
}

std::string ClusterSweepToJson(const ClusterConfig& base,
                               const std::vector<SweepPoint>& points) {
  JsonWriter w;
  w.BeginObject();
  w.KeyValue("schema_version",
             static_cast<int64_t>(obs::kReportSchemaVersion));
  MetaToJson(w, "cluster_sweep", base);

  w.Key("sweep");
  w.BeginObject();

  w.Key("series");
  w.BeginObject();
  for (const SweepPoint& p : points) {
    w.Key(NodeKey(p.multi_home_pct));
    w.BeginObject();
    w.KeyValue("multi_home_pct", p.multi_home_pct);
    w.KeyValue("generated", p.result.generated);
    w.KeyValue("committed", p.result.committed);
    w.KeyValue("aborted", p.result.aborted);
    w.KeyValue("single_home", p.result.single_home);
    w.KeyValue("multi_home", p.result.multi_home);
    w.KeyValue("messages", p.result.net.messages);
    w.KeyValue("bytes", p.result.net.bytes);
    w.KeyValue("fingerprint", HexFingerprint(p.result.fingerprint));
    w.KeyValue("invariants_ok", p.result.invariants.ok);
    w.KeyValue("traced", p.traced);
    w.KeyValue("orphaned", p.orphaned);
    w.EndObject();
  }
  w.EndObject();

  w.Key("perf");
  w.BeginObject();
  for (const SweepPoint& p : points) {
    w.Key(NodeKey(p.multi_home_pct));
    w.BeginObject();
    w.KeyValue("max_window_cycles", p.result.max_window_cycles);
    w.KeyValue("throughput_per_mcycle", p.result.throughput_per_mcycle);
    w.KeyValue("p99_critical_cycles", p.p99_critical_cycles);
    w.KeyValue("p99_net_order_share", p.p99_net_order_share);
    w.EndObject();
  }
  w.EndObject();

  w.EndObject();  // sweep
  w.EndObject();
  return w.TakeString();
}

}  // namespace imoltp::dist
