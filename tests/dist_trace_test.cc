// Tests for the distributed-tracing layer (src/dist/txn_trace.h):
// deterministic trace ids, the zero-observer contract (same-seed runs
// fingerprint bit-identical with tracing off, on, or sampled),
// critical-path arithmetic (the recorded critical path equals the sum
// of its recorded components, and the slowest participant chain
// gates a multi-home transaction), orphan accounting under node-death
// chaos, the schema-v8 `cluster.tracing` JSON section, and the
// whole-cluster Perfetto export.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/seed.h"
#include "dist/cluster.h"
#include "dist/cluster_json.h"
#include "dist/cluster_timeline.h"
#include "dist/txn_trace.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace imoltp::dist {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig cfg;
  cfg.nodes = 3;
  cfg.warehouses_per_node = 2;
  cfg.workers_per_node = 2;
  cfg.orders_per_district = 50;
  cfg.warmup_per_node = 50;
  cfg.txns_per_node = 250;
  cfg.multi_home_pct = 20;
  cfg.seed = 42;
  return cfg;
}

ClusterConfig TracedConfig(uint64_t sample = 1) {
  ClusterConfig cfg = SmallConfig();
  cfg.trace.enabled = true;
  cfg.trace.sample = sample;
  return cfg;
}

void RunCluster(Cluster* c) {
  ASSERT_TRUE(c->Create().ok());
  ASSERT_TRUE(c->Run().ok());
}

TEST(TxnTracerTest, TraceIdsAreDerivedAndDeterministic) {
  TxnTracer a(TxnTraceConfig{true, 1, 1 << 16}, /*cluster_seed=*/7);
  TxnTracer b(TxnTraceConfig{true, 1, 1 << 16}, /*cluster_seed=*/7);
  EXPECT_EQ(a.MakeTraceId(1, 5), b.MakeTraceId(1, 5));
  EXPECT_EQ(a.MakeTraceId(2, 9),
            DeriveSeed2(7, 2, 9, SeedStream::kTxnTrace));
  // Distinct (origin, seq) and distinct cluster seeds diverge.
  EXPECT_NE(a.MakeTraceId(0, 0), a.MakeTraceId(1, 0));
  EXPECT_NE(a.MakeTraceId(0, 0), a.MakeTraceId(0, 1));
  TxnTracer other(TxnTraceConfig{true, 1, 1 << 16}, /*cluster_seed=*/8);
  EXPECT_NE(a.MakeTraceId(1, 5), other.MakeTraceId(1, 5));
}

TEST(TxnTracerTest, SlowestChainGatesMultiHomeCriticalPath) {
  TxnTracer tracer(TxnTraceConfig{true, 1, 1 << 16}, 1);
  TxnTrace t;
  t.multi_home = true;
  t.forward_cycles = 100.0;
  t.order_wait_cycles = 200.0;
  t.ack_cycles = 50.0;
  // Two participants: the remote one is slower end to end even though
  // the home one has no delivery cost.
  t.participants.push_back({0, 0, 0.0, 900.0, 0.0, 0.0});
  t.participants.push_back({1, 0, 400.0, 800.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(t.SlowestChain(), 1200.0);
  tracer.Finish(t);
  ASSERT_EQ(tracer.ring().size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.ring()[0].critical_cycles,
                   100.0 + 200.0 + 1200.0 + 50.0);
}

TEST(ClusterTraceTest, TracingHasZeroObserverEffect) {
  Cluster off(SmallConfig());
  Cluster on(TracedConfig(1));
  Cluster sampled(TracedConfig(4));
  RunCluster(&off);
  RunCluster(&on);
  RunCluster(&sampled);

  EXPECT_EQ(off.tracer().traced(), 0u);
  EXPECT_GT(on.tracer().traced(), 0u);
  EXPECT_GT(sampled.tracer().traced(), 0u);
  EXPECT_LT(sampled.tracer().traced(), on.tracer().traced());

  // The determinism contract: every fingerprinted quantity is
  // bit-identical across tracing off / full / 1-in-4.
  EXPECT_EQ(off.result().fingerprint, on.result().fingerprint);
  EXPECT_EQ(off.result().fingerprint, sampled.result().fingerprint);
  EXPECT_EQ(off.result().committed, on.result().committed);
  EXPECT_EQ(off.result().aborted, on.result().aborted);
  EXPECT_EQ(off.result().net.messages, on.result().net.messages);
  EXPECT_EQ(off.result().net.bytes, on.result().net.bytes);
  EXPECT_EQ(off.result().net.latency_charged,
            on.result().net.latency_charged);
  EXPECT_EQ(off.result().net.latency_charged,
            sampled.result().net.latency_charged);
}

TEST(ClusterTraceTest, SampledTraceIdsFallInTheSample) {
  Cluster c(TracedConfig(4));
  RunCluster(&c);
  ASSERT_FALSE(c.tracer().ring().empty());
  for (const TxnTrace& t : c.tracer().ring()) {
    EXPECT_EQ(t.trace_id % 4, 0u);
    EXPECT_EQ(t.trace_id, c.tracer().MakeTraceId(t.origin, t.seq));
  }
}

TEST(ClusterTraceTest, CriticalPathEqualsComponentSum) {
  Cluster c(TracedConfig(1));
  RunCluster(&c);
  const TxnTracer& tracer = c.tracer();
  ASSERT_FALSE(tracer.ring().empty());
  uint64_t multi = 0;
  for (const TxnTrace& t : tracer.ring()) {
    if (t.multi_home) {
      ++multi;
      // forward + order_wait + slowest(deliver + exec) + ack, and the
      // slowest chain bounds every participant's chain.
      EXPECT_DOUBLE_EQ(t.critical_cycles,
                       t.forward_cycles + t.order_wait_cycles +
                           t.SlowestChain() + t.ack_cycles);
      for (const TxnTraceParticipant& p : t.participants) {
        EXPECT_GE(t.SlowestChain() + 1e-9,
                  p.deliver_cycles + p.exec_cycles);
      }
      EXPECT_GE(t.participants.size(), 2u);
    } else {
      double sum = t.queue_cycles;
      for (const TxnTraceParticipant& p : t.participants) {
        sum += p.exec_cycles;
        EXPECT_DOUBLE_EQ(p.deliver_cycles, 0.0);
      }
      EXPECT_DOUBLE_EQ(t.critical_cycles, sum);
    }
    EXPECT_GT(t.critical_cycles, 0.0);
  }
  EXPECT_GT(multi, 0u);
  // Every committed/aborted transaction was traced at sample=1, and
  // the tail composition's shares cover (nearly) the whole path.
  EXPECT_EQ(tracer.traced(),
            c.result().committed + c.result().aborted);
  const TraceTailComposition comp = tracer.TailComposition();
  EXPECT_GT(comp.tail_traces, 0u);
  const double total = comp.forward + comp.order_wait + comp.deliver +
                       comp.exec + comp.ack;
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(comp.net_order_share, total - comp.exec, 1e-12);
}

TEST(ClusterTraceTest, NodeDeathOrphansInFlightTraces) {
  ClusterConfig cfg = TracedConfig(1);
  cfg.chaos.enabled = true;
  cfg.chaos.nth_hit = 10;
  Cluster c(cfg);
  RunCluster(&c);
  ASSERT_GE(c.result().died_node, 0);
  const TxnTracer& tracer = c.tracer();
  // Reconciliation: every trace closed with exactly one terminal.
  EXPECT_GT(tracer.orphaned(), 0u);
  EXPECT_EQ(tracer.traced(), tracer.committed() + tracer.aborted() +
                                 tracer.orphaned());
  EXPECT_EQ(tracer.traced(), tracer.single_home() + tracer.multi_home());
  // Orphans never reach the completed-stage histograms.
  EXPECT_EQ(tracer.committed() + tracer.aborted(),
            tracer.critical_single_home().count() +
                tracer.critical_multi_home().count());
}

TEST(ClusterTraceTest, ReportCarriesTracingSection) {
  Cluster c(TracedConfig(1));
  RunCluster(&c);
  const std::string doc = ClusterReportToJson(&c);
  auto parsed = obs::ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = parsed.value();

  const obs::JsonValue* traced = root.FindPath("cluster.tracing.traced");
  ASSERT_NE(traced, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(traced->number), c.tracer().traced());

  const obs::JsonValue* queue_p99 =
      root.FindPath("cluster.tracing.stages.cycles.queue.p99");
  ASSERT_NE(queue_p99, nullptr);
  EXPECT_GT(queue_p99->number, 0.0);

  const obs::JsonValue* crit =
      root.FindPath("cluster.tracing.critical_path.cycles.multi_home.p99");
  ASSERT_NE(crit, nullptr);
  EXPECT_DOUBLE_EQ(crit->number, c.tracer().critical_multi_home().p99());

  const obs::JsonValue* share =
      root.FindPath("cluster.tracing.p99_net_order_share");
  ASSERT_NE(share, nullptr);
  EXPECT_GT(share->number, 0.0);
  EXPECT_LE(share->number, 1.0);

  const obs::JsonValue* refs = root.FindPath("host.simulated_refs");
  ASSERT_NE(refs, nullptr);
  EXPECT_GT(refs->number, 0.0);
  EXPECT_EQ(static_cast<uint64_t>(refs->number),
            c.host_perf().simulated_refs);
  const obs::JsonValue* rss = root.FindPath("host.peak_rss_bytes");
  ASSERT_NE(rss, nullptr);
  EXPECT_GT(rss->number, 0.0);
}

TEST(ClusterTraceTest, TimelineExportValidatesWithFlowArrows) {
  Cluster c(TracedConfig(1));
  RunCluster(&c);
  const std::string doc = ClusterTimelineToJson(c);
  uint64_t spans = 0, counters = 0, flows = 0;
  const Status s =
      obs::ValidateTimelineJson(doc, &spans, &counters, &flows);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(spans, 0u);
  EXPECT_EQ(counters, c.tracer().ring().size());

  // Every ring-resident multi-home transaction contributes one
  // "s"/"f" arrow pair per remote participant — at least one each.
  uint64_t multi = 0;
  for (const TxnTrace& t : c.tracer().ring()) {
    if (t.multi_home) ++multi;
  }
  EXPECT_GT(multi, 0u);
  EXPECT_GE(flows, 2 * multi);
}

}  // namespace
}  // namespace imoltp::dist
