#ifndef IMOLTP_DIST_CLUSTER_H_
#define IMOLTP_DIST_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "dist/dist_txn.h"
#include "dist/forwarder.h"
#include "dist/global_order.h"
#include "dist/message.h"
#include "dist/node.h"
#include "dist/sequencer.h"
#include "dist/txn_trace.h"
#include "fault/fault_injector.h"
#include "fault/invariants.h"
#include "txn/partition.h"

namespace imoltp::dist {

/// `node.death` arming for a cluster run: fail-stop one node while the
/// cluster keeps running (transactions involving the dead node are
/// rejected, everything else proceeds), then recover it from its
/// durable log before the final invariant audit.
struct ClusterChaosConfig {
  bool enabled = false;
  double probability = 0.0;  // per (node, round) death probability
  uint64_t nth_hit = 0;      // deterministic: dies on the nth check
  bool recover = true;       // rebuild dead nodes after the run
};

/// Whole-cluster configuration. Nodes are symmetric; global warehouse
/// ids are node_id * warehouses_per_node + local id.
struct ClusterConfig {
  int nodes = 3;
  int warehouses_per_node = 2;
  int workers_per_node = 2;  // must divide warehouses_per_node
  int orders_per_district = 200;
  engine::EngineKind engine_kind = engine::EngineKind::kHyPer;
  engine::EngineOptions engine_options;
  mcsim::MachineConfig machine_config;

  uint64_t warmup_per_node = 400;  // generated before the window opens
  uint64_t txns_per_node = 2000;   // generated inside the window

  /// Percentage of New-Order and Payment transactions that touch a
  /// remote node (TPC-C's remote order lines / remote payments, made a
  /// dial — the Hardware-Islands-style sweep axis).
  int multi_home_pct = 10;

  /// Transactions each node's client generates per scheduling round
  /// (the batch the sequencer stamps and the global orderer merges).
  int batch_per_round = 32;

  uint64_t seed = 1;
  NetworkConfig net;
  ClusterChaosConfig chaos;

  /// Distributed tracing (src/dist/txn_trace.h). Safe to enable on any
  /// run: the tracer only reads core clocks and computes modeled costs,
  /// so fingerprints and every simulated counter stay bit-identical
  /// with tracing off, on, or sampled.
  TxnTraceConfig trace;
};

/// Cluster-level outcome summary. Everything except the cycle-valued
/// fields is deterministic for a given seed and feeds `fingerprint`.
struct ClusterResult {
  uint64_t generated = 0;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  uint64_t single_home = 0;
  uint64_t multi_home = 0;
  uint64_t rejected_dead = 0;  // skipped: a participant node was dead
  NetworkStats net;
  fault::InvariantReport invariants;
  std::vector<fault::FaultPointStats> fault_points;
  int died_node = -1;      // -1 = no node died
  uint64_t death_round = 0;
  bool recovered = false;
  uint64_t fingerprint = 0;

  /// Cluster makespan proxy: max over nodes of the window's modeled
  /// per-worker cycles (nodes run concurrently; the slowest gates).
  double max_window_cycles = 0.0;
  /// Committed transactions per simulated megacycle of makespan.
  double throughput_per_mcycle = 0.0;
};

/// Host cost of one Cluster::Run (warm-up, measurement, recovery and
/// audit): the simulator process, not the simulated cluster, so never
/// deterministic and never part of the fingerprint.
struct ClusterHostPerf {
  double run_seconds = 0.0;
  /// References (code-line fetches + data accesses) every node's
  /// machine simulated during Run, and their rate per host second.
  uint64_t simulated_refs = 0;
  double refs_per_second = 0.0;
  uint64_t peak_rss_bytes = 0;
};

/// The simulated shared-nothing cluster: N nodes (each a full
/// engine + machine + local TPC-C shard) joined only by the in-process
/// message layer, with SLOG-style deterministic ordering — per-node
/// sequencers for single-home transactions, a global orderer merging
/// the multi-home ones. The driver is single-threaded and round-based;
/// all parallelism is simulated (per-node machines advance their own
/// cycle clocks), so same-seed runs are bit-identical end to end —
/// ordering, commits, aborts, message counts, durable logs, and the
/// final audit all fingerprint equal.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Builds and populates every node. InvalidArgument when the
  /// workers cannot split a node's warehouses evenly.
  Status Create();

  /// Runs warm-up and the measured window, applies node-death chaos if
  /// armed, recovers dead nodes, audits invariants, and fills result().
  Status Run();

  const ClusterConfig& config() const { return config_; }
  const ClusterResult& result() const { return result_; }
  /// Host cost of the last successful Run().
  const ClusterHostPerf& host_perf() const { return host_perf_; }

  /// References every node has simulated so far (Node::SimulatedRefs):
  /// code-line fetches plus data accesses over all cores. The total
  /// never decreases, so a phase's references are a difference of two
  /// calls.
  uint64_t SimulatedRefs() const;
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node* node(int i) { return nodes_[static_cast<size_t>(i)].get(); }
  const Node* node(int i) const {
    return nodes_[static_cast<size_t>(i)].get();
  }
  const txn::OwnershipMap& ownership() const { return ownership_; }
  const TxnTracer& tracer() const { return tracer_; }
  const GlobalOrderer& orderer() const { return orderer_; }

 private:
  /// Draws one client transaction at `origin` (all RNG consumed here).
  DistTxn GenerateTxn(int origin, Rng* rng);
  /// Runs `per_node` transactions per node in rounds; `measure` turns
  /// on chaos checks and result accounting.
  Status RunPhase(uint64_t per_node, bool measure);
  /// Executes one single-home transaction entirely at its home node.
  void ExecuteSingleHome(const DistTxn& t, bool measure);
  /// Executes one ordered multi-home transaction fragment by fragment.
  void ExecuteMultiHome(const DistTxn& t,
                        const std::vector<Envelope<DistTxn>>& envelopes,
                        bool measure);
  void ComputeFingerprint();

  /// Current model-cycle clock of one node's worker core — the
  /// timestamp source of the tracing layer (the same clock ScopedSpan
  /// and the sampler read). Pure: no simulated state changes.
  double CoreClock(Node* node, int worker) const;
  /// Closes an in-flight trace as `aborted-by-node-death`.
  void OrphanTrace(const DistTxn& t, bool forwarded);

  ClusterConfig config_;
  txn::OwnershipMap ownership_;
  Forwarder forwarder_;
  GlobalOrderer orderer_;
  Network network_;
  fault::FaultInjector injector_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Sequencer> sequencers_;
  std::vector<Rng> client_rngs_;
  Mailbox<DistTxn> orderer_inbox_;
  TxnTracer tracer_;
  uint64_t round_ = 0;
  ClusterResult result_;
  ClusterHostPerf host_perf_;
};

}  // namespace imoltp::dist

#endif  // IMOLTP_DIST_CLUSTER_H_
