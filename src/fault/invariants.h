#ifndef IMOLTP_FAULT_INVARIANTS_H_
#define IMOLTP_FAULT_INVARIANTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tpcb.h"
#include "core/tpcc.h"
#include "engine/engine.h"

namespace imoltp::obs {
class JsonWriter;
}  // namespace imoltp::obs

namespace imoltp::fault {

/// Result of one workload-level consistency audit. The audit runs as
/// read-only transactions through the engine's own Execute path (so it
/// respects partition routing and concurrency control); `checksums` is a
/// stable numeric digest of what the audit observed, fed into the chaos
/// fingerprint for same-seed determinism checks.
struct InvariantReport {
  bool ok = true;
  std::vector<std::string> violations;
  std::vector<int64_t> checksums;

  void Violate(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }
};

/// Writes `rep` as a JSON object: ok, violations, checksums.
void InvariantsToJson(obs::JsonWriter& w, const InvariantReport& rep);

/// TPC-B money conservation. Every AccountUpdate adds the same delta to
/// one branch, one teller of that branch, and one account of that
/// branch, so for every branch b:
///
///   Δbalance(b) == Σ Δbalance(tellers of b) == Σ Δbalance(accounts of b)
///
/// Initial balances are regenerated from the tables' deterministic row
/// generators, so the check needs no snapshot of the pre-run database.
/// `num_workers` must match the engine's partition count (the audit
/// visits each partition from its home worker).
InvariantReport CheckTpcbInvariants(engine::Engine* engine,
                                    const core::TpcbBenchmark& bench,
                                    int num_workers);

/// One database's share of the TPC-C sums that balance only across a
/// whole cluster: a remote Payment or order line puts its two halves
/// on different nodes. Initial W_YTD and S_YTD are 0 and initial
/// ytd_paid is 10 per customer.
struct TpccSums {
  int64_t w_ytd = 0;           // Σ W_YTD
  int64_t customer_paid = 0;   // Σ (ytd_paid − 10): payments received
  int64_t stock_ytd = 0;       // Σ S_YTD
  int64_t order_line_qty = 0;  // Σ quantities of committed orders
  bool complete = true;        // no warehouse's audit aborted
};

/// TPC-C conservation invariants (TPC-C clause 3.3 consistency
/// conditions, scaled to this implementation):
///
///   1. W_YTD == Σ D_YTD over the warehouse's districts (Payment adds
///      the same amount to both).
///   2. D_NEXT_O_ID >= orders_per_district (it only advances).
///   3. Order-line conservation: for every order id in
///      [orders_per_district, D_NEXT_O_ID) the Order row exists and
///      exactly O_OL_CNT order lines with its key prefix exist
///      (NewOrder inserts them atomically; Delivery never deletes them).
///
/// With `sums`, the same audit transactions also add this database's
/// share to the cluster-wide conservation sums
/// (dist/cluster_invariants.h) and clear `sums->complete` if a
/// warehouse's audit aborted.
InvariantReport CheckTpccInvariants(engine::Engine* engine,
                                    const core::TpccConfig& config,
                                    int num_workers,
                                    TpccSums* sums = nullptr);

}  // namespace imoltp::fault

#endif  // IMOLTP_FAULT_INVARIANTS_H_
