#include "dist/cluster.h"

#include <algorithm>

#include "common/seed.h"
#include "dist/cluster_invariants.h"
#include "fault/fingerprint.h"
#include "mcsim/counters.h"
#include "obs/host_metrics.h"

namespace imoltp::dist {

namespace {

/// Wire size of a participant's commit ack back to the home node (a
/// bare header). Modeled by the tracing layer only — the driver never
/// charges this hop, so the constant must not feed NetworkStats.
constexpr uint32_t kAckWireBytes = 32;

/// Nominal wire size of one routed transaction (request header plus
/// parameters). Fixed constants, not sizeof(): byte accounting must not
/// depend on struct padding.
uint32_t WireBytes(const DistTxn& t) {
  if (t.type == core::TpccBenchmark::kTxnNewOrder) {
    return 96 + 16u * static_cast<uint32_t>(t.no.ol_cnt);
  }
  return 96;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : config_(config),
      ownership_(config.nodes,
                 static_cast<uint64_t>(config.warehouses_per_node)),
      forwarder_(&ownership_),
      network_(config.net),
      injector_(DeriveSeed(config.seed, 0, SeedStream::kClusterFault)),
      tracer_(config.trace, config.seed) {
  for (int n = 0; n < config_.nodes; ++n) {
    NodeConfig nc;
    nc.node_id = n;
    nc.warehouses = config_.warehouses_per_node;
    nc.workers = config_.workers_per_node;
    nc.orders_per_district = config_.orders_per_district;
    nc.engine_kind = config_.engine_kind;
    nc.engine_options = config_.engine_options;
    nc.machine_config = config_.machine_config;
    nodes_.push_back(std::make_unique<Node>(nc));
    sequencers_.emplace_back(n);
    client_rngs_.emplace_back(DeriveSeed(config_.seed,
                                         static_cast<uint64_t>(n),
                                         SeedStream::kNodeClient));
  }
  if (config_.chaos.enabled) {
    fault::FaultPointConfig fc;
    fc.probability = config_.chaos.probability;
    fc.nth_hit = config_.chaos.nth_hit;
    injector_.Arm(fault::kNodeDeath, fc);
  }
}

Cluster::~Cluster() = default;

double Cluster::CoreClock(Node* node, int worker) const {
  return mcsim::SimulatedCycles(node->machine()->core(worker).counters(),
                                config_.machine_config.cycle);
}

void Cluster::OrphanTrace(const DistTxn& t, bool forwarded) {
  if (!t.trace.sampled) return;
  TxnTrace tr;
  tr.trace_id = t.trace.trace_id;
  tr.origin = t.origin;
  tr.seq = t.seq;
  tr.global_seq = t.global_seq;
  tr.multi_home = t.multi_home;
  tr.terminal = TxnTraceTerminal::kOrphaned;
  tr.assign_cycles = t.trace.assign_cycles;
  // The stages the transaction reached before the death cut it off: a
  // multi-home txn that made it to the orderer already paid the
  // forward hop. Its node may be gone, so no clocks are read here.
  if (forwarded) tr.forward_cycles =
      static_cast<double>(network_.CostOf(WireBytes(t)));
  tracer_.Finish(std::move(tr));
}

Status Cluster::Create() {
  // Every node splits its warehouses evenly over its workers.
  core::TpccConfig tpcc;
  tpcc.warehouses = config_.warehouses_per_node;
  tpcc.num_partitions = config_.workers_per_node;
  const Status valid = tpcc.Validate();
  if (!valid.ok()) return valid;
  for (auto& node : nodes_) {
    const Status s = node->Create();
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

DistTxn Cluster::GenerateTxn(int origin, Rng* rng) {
  using B = core::TpccBenchmark;
  Node* nd = nodes_[static_cast<size_t>(origin)].get();
  DistTxn t;
  const uint64_t local_w =
      rng->Uniform(static_cast<uint64_t>(config_.warehouses_per_node));
  t.home_w = ownership_.GlobalUnit(origin, local_w);
  const int worker = nd->WorkerFor(local_w);

  // Standard TPC-C mix (same thresholds as the single-node dispatch),
  // then the per-type parameter draws in the same order the local Run*
  // bodies use, then — last — the multi-home coin and remote draws, so
  // the shared prefix of the stream is identical at every
  // multi_home_pct setting.
  const uint64_t roll = rng->Uniform(100);
  if (roll < 45) {
    t.type = B::kTxnNewOrder;
    t.no.d = rng->Uniform(B::kDistrictsPerWarehouse);
    t.no.c = rng->NonUniform(1023, 259, 0, B::kCustomersPerDistrict - 1);
    t.no.ol_cnt = static_cast<int>(rng->Range(5, 15));
    for (int i = 0; i < t.no.ol_cnt; ++i) {
      t.no.items[i] = rng->NonUniform(8191, 7911, 0, B::kItems - 1);
      t.no.quantities[i] = rng->Range(1, 10);
    }
    if (config_.nodes > 1 && config_.multi_home_pct > 0 &&
        rng->Uniform(100) <
            static_cast<uint64_t>(config_.multi_home_pct)) {
      const int remote_node =
          (origin + 1 +
           static_cast<int>(rng->Uniform(
               static_cast<uint64_t>(config_.nodes - 1)))) %
          config_.nodes;
      t.remote_w = ownership_.GlobalUnit(
          remote_node,
          rng->Uniform(static_cast<uint64_t>(config_.warehouses_per_node)));
      // Each order line is remotely supplied with probability 1/2; at
      // least one line must be (otherwise the txn is single-home after
      // all and the classification coin was wasted).
      for (int i = 0; i < t.no.ol_cnt; ++i) {
        if (rng->Uniform(2) == 0) {
          t.no.remote_mask |= static_cast<uint16_t>(1u << i);
        }
      }
      if (t.no.remote_mask == 0) t.no.remote_mask = 1;
    }
  } else if (roll < 88) {
    t.type = B::kTxnPayment;
    t.pay.d = rng->Uniform(B::kDistrictsPerWarehouse);
    t.pay.by_name = rng->Uniform(100) < 60;
    t.pay.c = rng->NonUniform(1023, 259, 0, B::kCustomersPerDistrict - 1);
    t.pay.name_bucket = rng->NonUniform(255, 223, 0, 999);
    t.pay.amount = static_cast<int64_t>(rng->Range(100, 500000));
    t.pay.history_id = nd->bench()->NextHistoryId(worker);
    if (config_.nodes > 1 && config_.multi_home_pct > 0 &&
        rng->Uniform(100) <
            static_cast<uint64_t>(config_.multi_home_pct)) {
      const int remote_node =
          (origin + 1 +
           static_cast<int>(rng->Uniform(
               static_cast<uint64_t>(config_.nodes - 1)))) %
          config_.nodes;
      t.remote_w = ownership_.GlobalUnit(
          remote_node,
          rng->Uniform(static_cast<uint64_t>(config_.warehouses_per_node)));
      t.pay.customer_remote = true;
    }
  } else if (roll < 92) {
    t.type = B::kTxnOrderStatus;
    t.d = rng->Uniform(B::kDistrictsPerWarehouse);
    t.by_name = rng->Uniform(100) < 60;
    t.c = rng->NonUniform(1023, 259, 0, B::kCustomersPerDistrict - 1);
    t.name_bucket = rng->NonUniform(255, 223, 0, 999);
  } else if (roll < 96) {
    t.type = B::kTxnDelivery;
    t.carrier = static_cast<int64_t>(rng->Range(1, 10));
  } else {
    t.type = B::kTxnStockLevel;
    t.d = rng->Uniform(B::kDistrictsPerWarehouse);
    t.threshold = static_cast<int64_t>(rng->Range(10, 20));
  }
  return t;
}

void Cluster::ExecuteSingleHome(const DistTxn& t, bool measure) {
  using B = core::TpccBenchmark;
  const int home = t.involved[0];
  Node* nd = nodes_[static_cast<size_t>(home)].get();
  const uint64_t lw = ownership_.LocalUnit(t.home_w);
  const int worker = nd->WorkerFor(lw);
  engine::Engine* eng = nd->engine();
  core::TpccBenchmark* bench = nd->bench();

  const bool tracing = measure && t.trace.sampled;
  TxnTrace tr;
  if (tracing) {
    tr.trace_id = t.trace.trace_id;
    tr.origin = t.origin;
    tr.seq = t.seq;
    tr.multi_home = false;
    tr.assign_cycles = t.trace.assign_cycles;
    // Everything between the sequencer stamp and this point — the
    // round's multi-home dispatch plus earlier entries of the local
    // queue draining on this core — is queueing delay.
    tr.queue_cycles =
        std::max(0.0, CoreClock(nd, worker) - t.trace.assign_cycles);
  }
  // Runs one fragment with clock reads around the engine call.
  auto fragment = [&](int w, auto&& body) {
    TxnTraceParticipant p;
    if (tracing) {
      p.node = home;
      p.core = w;
      p.exec_start = CoreClock(nd, w);
    }
    const Status fs = body();
    if (tracing) {
      p.exec_end = CoreClock(nd, w);
      p.exec_cycles = p.exec_end - p.exec_start;
      tr.participants.push_back(p);
    }
    return fs;
  };

  Status s = Status::Ok();
  int fragments = 1;
  switch (t.type) {
    case B::kTxnNewOrder:
      s = fragment(worker, [&] {
        return bench->ExecuteNewOrderHome(eng, worker, lw, t.no);
      });
      // A "remote" warehouse that lives on the home node: still
      // single-home (the forwarder's point); run the stock fragment
      // locally as a second engine call.
      if (s.ok() && t.no.remote_mask != 0) {
        const uint64_t rlw = ownership_.LocalUnit(t.remote_w);
        const int rw = nd->WorkerFor(rlw);
        s = fragment(rw, [&] {
          return bench->ExecuteNewOrderRemoteStock(eng, rw, rlw, t.no);
        });
        ++fragments;
      }
      break;
    case B::kTxnPayment:
      s = fragment(worker, [&] {
        return bench->ExecutePaymentHome(eng, worker, lw, t.pay);
      });
      if (s.ok() && t.pay.customer_remote) {
        const uint64_t rlw = ownership_.LocalUnit(t.remote_w);
        const int rw = nd->WorkerFor(rlw);
        s = fragment(rw, [&] {
          return bench->ExecutePaymentCustomer(eng, rw, rlw, t.pay);
        });
        ++fragments;
      }
      break;
    case B::kTxnOrderStatus:
      s = fragment(worker, [&] {
        return bench->ExecuteOrderStatus(eng, worker, lw, t.d, t.c,
                                         t.name_bucket, t.by_name);
      });
      break;
    case B::kTxnDelivery:
      s = fragment(worker, [&] {
        return bench->ExecuteDelivery(eng, worker, lw, t.carrier);
      });
      break;
    default:
      s = fragment(worker, [&] {
        return bench->ExecuteStockLevel(eng, worker, lw, t.d,
                                        t.threshold);
      });
      break;
  }

  if (tracing) {
    tr.terminal = s.ok() ? TxnTraceTerminal::kCommitted
                         : TxnTraceTerminal::kAborted;
    tracer_.Finish(std::move(tr));
  }

  if (!measure) return;
  NodeStats& st = nd->stats();
  st.fragments += static_cast<uint64_t>(fragments);
  if (s.ok()) {
    ++st.committed;
    ++st.single_home;
  } else {
    ++st.aborted;
  }
}

void Cluster::ExecuteMultiHome(
    const DistTxn& t, const std::vector<Envelope<DistTxn>>& envelopes,
    bool measure) {
  using B = core::TpccBenchmark;
  for (int n : t.involved) {
    if (!nodes_[static_cast<size_t>(n)]->alive()) {
      if (measure) {
        ++result_.rejected_dead;
        // Close the span instead of letting it vanish: the trace ends
        // in the `aborted-by-node-death` terminal stage.
        OrphanTrace(t, /*forwarded=*/true);
      }
      return;
    }
  }

  const bool tracing = measure && t.trace.sampled;
  TxnTrace tr;

  // Home fragment first: it carries the transaction's commit decision
  // (district advance / W_YTD / history), so a home abort voids the
  // remote fragments.
  const int home = t.involved[0];
  Node* hn = nodes_[static_cast<size_t>(home)].get();
  const uint64_t lw = ownership_.LocalUnit(t.home_w);
  const int hworker = hn->WorkerFor(lw);
  if (tracing) {
    tr.trace_id = t.trace.trace_id;
    tr.origin = t.origin;
    tr.seq = t.seq;
    tr.global_seq = t.global_seq;
    tr.multi_home = true;
    tr.assign_cycles = t.trace.assign_cycles;
    // The forwarder→orderer hop: modeled at the same wire cost the
    // ordered copies pay, but never charged by the driver — CostOf
    // computes without accounting.
    tr.forward_cycles = static_cast<double>(network_.CostOf(WireBytes(t)));
    // Batch wait in the global orderer: the home core's clock has
    // advanced past assign + forward by exactly the time this round's
    // ordered predecessors spent executing ahead of us.
    tr.dispatch_cycles = CoreClock(hn, hworker);
    tr.order_wait_cycles = std::max(
        0.0, tr.dispatch_cycles - (tr.assign_cycles + tr.forward_cycles));
  }
  // Runs one ordered-copy delivery + fragment at a participant,
  // recording the deliver/exec chain when traced.
  auto fragment = [&](Node* node, int w, const Envelope<DistTxn>& env,
                      auto&& body) {
    const uint64_t cost = network_.ChargeReceive(env);
    node->machine()->core(w).Stall(static_cast<double>(cost));
    if (measure) node->stats().stall_cycles += cost;
    TxnTraceParticipant p;
    if (tracing) {
      p.node = node->node_id();
      p.core = w;
      p.deliver_cycles = static_cast<double>(cost);
      p.exec_start = CoreClock(node, w);
    }
    const Status fs = body();
    if (tracing) {
      p.exec_end = CoreClock(node, w);
      p.exec_cycles = p.exec_end - p.exec_start;
      tr.participants.push_back(p);
    }
    return fs;
  };

  const Status s = fragment(hn, hworker, envelopes[0], [&] {
    if (t.type == B::kTxnNewOrder) {
      return hn->bench()->ExecuteNewOrderHome(hn->engine(), hworker, lw,
                                              t.no);
    }
    return hn->bench()->ExecutePaymentHome(hn->engine(), hworker, lw,
                                           t.pay);
  });
  if (measure) ++hn->stats().fragments;
  if (!s.ok()) {
    if (measure) ++hn->stats().aborted;
    if (tracing) {
      tr.terminal = TxnTraceTerminal::kAborted;
      tracer_.Finish(std::move(tr));
    }
    return;
  }

  for (size_t i = 1; i < t.involved.size(); ++i) {
    const int rn = t.involved[i];
    Node* node = nodes_[static_cast<size_t>(rn)].get();
    const uint64_t rlw = ownership_.LocalUnit(t.remote_w);
    const int rworker = node->WorkerFor(rlw);
    const Status rs = fragment(node, rworker, envelopes[i], [&] {
      if (t.type == B::kTxnNewOrder) {
        return node->bench()->ExecuteNewOrderRemoteStock(
            node->engine(), rworker, rlw, t.no);
      }
      return node->bench()->ExecutePaymentCustomer(node->engine(),
                                                   rworker, rlw, t.pay);
    });
    if (measure) {
      ++node->stats().fragments;
      if (!rs.ok()) ++node->stats().aborted;
    }
  }

  if (tracing) {
    // Commit ack from the slowest participant back to the home node —
    // the last hop of the critical path. Modeled only, like forward.
    tr.ack_cycles = static_cast<double>(network_.CostOf(kAckWireBytes));
    tr.terminal = TxnTraceTerminal::kCommitted;
    tracer_.Finish(std::move(tr));
  }

  if (measure) {
    ++hn->stats().committed;
    ++hn->stats().multi_home;
  }
}

Status Cluster::RunPhase(uint64_t per_node, bool measure) {
  std::vector<uint64_t> remaining(nodes_.size(), per_node);
  auto pending = [&remaining]() {
    uint64_t sum = 0;
    for (uint64_t r : remaining) sum += r;
    return sum;
  };

  while (pending() > 0) {
    ++round_;

    // Fail-stop chaos: one death check per alive node per round, in
    // node-id order (so an nth_hit trigger picks a deterministic
    // (round, node) pair).
    if (measure && config_.chaos.enabled) {
      for (size_t n = 0; n < nodes_.size(); ++n) {
        Node* node = nodes_[n].get();
        if (!node->alive()) continue;
        if (injector_.Fires(fault::kNodeDeath)) {
          node->Kill(round_);
          if (result_.died_node < 0) {
            result_.died_node = static_cast<int>(n);
            result_.death_round = round_;
          }
        }
      }
    }

    // Client + sequencer + forwarder: each alive node stamps and
    // routes a batch. A dead node generates nothing and abandons its
    // unfinished quota (its client died with it).
    for (size_t n = 0; n < nodes_.size(); ++n) {
      Node* node = nodes_[n].get();
      if (!node->alive()) {
        if (measure) {
          // Unexecuted stamped work dies with the node; their traces
          // close as orphans so chaos runs still reconcile.
          DistTxn dropped;
          while (sequencers_[n].PopLocal(&dropped)) {
            ++result_.rejected_dead;
            OrphanTrace(dropped, /*forwarded=*/false);
          }
        }
        remaining[n] = 0;
        continue;
      }
      const bool tracing = measure && tracer_.enabled();
      const uint64_t batch = std::min(
          remaining[n], static_cast<uint64_t>(config_.batch_per_round));
      for (uint64_t i = 0; i < batch; ++i) {
        DistTxn t = GenerateTxn(static_cast<int>(n), &client_rngs_[n]);
        // The trace context is born at the sequencer, stamped with the
        // home worker core's clock (home node == origin: clients only
        // generate transactions homed at their own node).
        double now = 0.0;
        if (tracing) {
          const uint64_t lw = ownership_.LocalUnit(t.home_w);
          now = CoreClock(node, node->WorkerFor(lw));
        }
        sequencers_[n].Assign(&t, tracing ? &tracer_ : nullptr, now);
        forwarder_.Classify(&t);
        if (measure) ++result_.generated;
        if (t.multi_home) {
          network_.Send(&orderer_inbox_, static_cast<int>(n), kOrdererId,
                        WireBytes(t), std::move(t));
        } else {
          sequencers_[n].EnqueueLocal(std::move(t));
        }
      }
      remaining[n] -= batch;
    }

    // Global orderer: merge this round's multi-home batch into the
    // deterministic total order, then dispatch one ordered copy to
    // every participant.
    std::vector<DistTxn> multi;
    Envelope<DistTxn> env;
    while (orderer_inbox_.Pop(&env)) multi.push_back(std::move(env.payload));
    orderer_.OrderBatch(&multi);
    for (const DistTxn& t : multi) {
      Mailbox<DistTxn> scratch;
      for (int n : t.involved) {
        network_.Send(&scratch, kOrdererId, n, WireBytes(t), t);
      }
      std::vector<Envelope<DistTxn>> envs;
      while (scratch.Pop(&env)) envs.push_back(std::move(env));
      ExecuteMultiHome(t, envs, measure);
    }

    // Single-home queues drain in local sequence order.
    for (size_t n = 0; n < nodes_.size(); ++n) {
      if (!nodes_[n]->alive()) continue;
      DistTxn t;
      while (sequencers_[n].PopLocal(&t)) {
        ExecuteSingleHome(t, measure);
      }
    }
  }
  return Status::Ok();
}

uint64_t Cluster::SimulatedRefs() const {
  uint64_t refs = 0;
  for (const auto& node : nodes_) refs += node->SimulatedRefs();
  return refs;
}

Status Cluster::Run() {
  const uint64_t refs_before = SimulatedRefs();
  const double run_start = obs::MonotonicSeconds();
  Status s = RunPhase(config_.warmup_per_node, /*measure=*/false);
  if (!s.ok()) return s;

  for (auto& node : nodes_) node->BeginWindow();
  s = RunPhase(config_.txns_per_node, /*measure=*/true);
  if (!s.ok()) return s;
  for (auto& node : nodes_) node->EndWindow();

  // Recover fail-stopped nodes from their durable logs before the
  // audit: the cluster is only consistent again once the dead node's
  // committed state is back.
  for (auto& node : nodes_) {
    if (node->alive()) continue;
    if (!config_.chaos.recover) continue;
    s = node->Recover();
    if (!s.ok()) return s;
    result_.recovered = true;
  }

  for (const auto& node : nodes_) {
    const NodeStats& st = node->stats();
    result_.committed += st.committed;
    result_.aborted += st.aborted;
    result_.single_home += st.single_home;
    result_.multi_home += st.multi_home;
    if (node->has_window()) {
      result_.max_window_cycles =
          std::max(result_.max_window_cycles, node->window().cycles);
    }
  }
  if (result_.max_window_cycles > 0) {
    result_.throughput_per_mcycle =
        static_cast<double>(result_.committed) /
        (result_.max_window_cycles / 1e6);
  }

  result_.invariants = CheckClusterInvariants(this);
  result_.net = network_.stats();
  result_.fault_points = injector_.Stats();
  ComputeFingerprint();

  host_perf_.run_seconds = obs::MonotonicSeconds() - run_start;
  host_perf_.simulated_refs = SimulatedRefs() - refs_before;
  host_perf_.refs_per_second =
      host_perf_.run_seconds > 0
          ? static_cast<double>(host_perf_.simulated_refs) /
                host_perf_.run_seconds
          : 0.0;
  host_perf_.peak_rss_bytes = obs::PeakRssBytes();
  return Status::Ok();
}

void Cluster::ComputeFingerprint() {
  using fault::FnvInvariants;
  using fault::FnvMix;
  uint64_t fp = fault::kFnvOffset;
  fp = FnvMix(fp, result_.generated);
  fp = FnvMix(fp, result_.committed);
  fp = FnvMix(fp, result_.aborted);
  fp = FnvMix(fp, result_.single_home);
  fp = FnvMix(fp, result_.multi_home);
  fp = FnvMix(fp, result_.rejected_dead);
  fp = FnvMix(fp, result_.net.messages);
  fp = FnvMix(fp, result_.net.bytes);
  fp = FnvMix(fp, static_cast<uint64_t>(result_.died_node + 1));
  fp = FnvMix(fp, result_.death_round);
  for (const auto& node : nodes_) {
    const NodeStats& st = node->stats();
    fp = FnvMix(fp, st.committed);
    fp = FnvMix(fp, st.aborted);
    fp = FnvMix(fp, st.single_home);
    fp = FnvMix(fp, st.multi_home);
    fp = FnvMix(fp, st.fragments);
    fp = node->FnvDurableLog(fp);
  }
  fp = FnvInvariants(fp, result_.invariants);
  result_.fingerprint = fp;
}

}  // namespace imoltp::dist
