#ifndef IMOLTP_DIST_SEQUENCER_H_
#define IMOLTP_DIST_SEQUENCER_H_

#include <cstdint>
#include <deque>

#include "dist/dist_txn.h"
#include "dist/txn_trace.h"

namespace imoltp::dist {

/// Per-node sequencer: the single local ordering point of a node. Every
/// transaction the node's clients generate passes through here and
/// receives the node's monotonic sequence number — the per-origin total
/// order that (a) fixes the execution order of the node's single-home
/// queue and (b) is the tie-free input the global orderer merges for
/// multi-home transactions. It imposes order, not mutual exclusion:
/// batches drain in seq order regardless of how they were produced.
class Sequencer {
 public:
  explicit Sequencer(int node_id) : node_id_(node_id) {}

  /// Stamps `t` with the node's next sequence number. When a tracer is
  /// supplied and samples this (origin, seq), the distributed-trace
  /// context is born here — the sequencer is the first ordering point
  /// every transaction passes — with `now_cycles` (the home core's
  /// model clock) as the trace's start-of-life timestamp.
  void Assign(DistTxn* t, const TxnTracer* tracer = nullptr,
              double now_cycles = 0.0) {
    t->origin = node_id_;
    t->seq = next_seq_++;
    if (tracer != nullptr && tracer->enabled()) {
      t->trace.trace_id = tracer->MakeTraceId(t->origin, t->seq);
      t->trace.sampled = tracer->Sampled(t->trace.trace_id);
      t->trace.assign_cycles = now_cycles;
    }
  }

  /// Enqueues a single-home transaction for local in-order execution.
  void EnqueueLocal(DistTxn t) { local_.push_back(std::move(t)); }

  /// Drains one transaction from the local queue (seq order).
  bool PopLocal(DistTxn* out) {
    if (local_.empty()) return false;
    *out = std::move(local_.front());
    local_.pop_front();
    return true;
  }

  size_t local_pending() const { return local_.size(); }
  uint64_t next_seq() const { return next_seq_; }
  int node_id() const { return node_id_; }

 private:
  int node_id_;
  uint64_t next_seq_ = 0;
  std::deque<DistTxn> local_;
};

}  // namespace imoltp::dist

#endif  // IMOLTP_DIST_SEQUENCER_H_
