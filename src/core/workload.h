#ifndef IMOLTP_CORE_WORKLOAD_H_
#define IMOLTP_CORE_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/engine.h"

namespace imoltp::core {

/// The shipped benchmark vocabulary. Every tool that takes a
/// --workload flag parses it through ParseWorkload so unknown names
/// are rejected in one place, with one canonical choices list.
enum class WorkloadKind {
  kMicro,
  kMicroRw,
  kMicroString,
  kTpcb,
  kTpcc,
};

inline const char* WorkloadKindName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMicro:
      return "micro";
    case WorkloadKind::kMicroRw:
      return "micro-rw";
    case WorkloadKind::kMicroString:
      return "micro-string";
    case WorkloadKind::kTpcb:
      return "tpcb";
    case WorkloadKind::kTpcc:
      return "tpcc";
  }
  return "?";
}

/// Canonical choices list for CLI error messages.
inline const char* WorkloadChoices() {
  return "micro micro-rw micro-string tpcb tpcc";
}

inline bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "micro") return *out = WorkloadKind::kMicro, true;
  if (name == "micro-rw") return *out = WorkloadKind::kMicroRw, true;
  if (name == "micro-string") {
    return *out = WorkloadKind::kMicroString, true;
  }
  if (name == "tpcb") return *out = WorkloadKind::kTpcb, true;
  if (name == "tpcc") return *out = WorkloadKind::kTpcc, true;
  return false;
}

/// A benchmark: table definitions plus a transaction generator. Bodies
/// are written once against engine::TxnContext and run unchanged on all
/// five engine archetypes (the paper implements each benchmark in every
/// system's frontend; the archetypes share one stored-procedure API).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Table definitions for Engine::CreateDatabase.
  virtual std::vector<engine::TableDef> Tables() const = 0;

  /// Generates and executes one transaction on `worker`. Workers draw
  /// their keys from their own partition's range so that partitioned
  /// engines run single-site transactions (paper Section 7 ensures all
  /// VoltDB transactions access a single partition).
  virtual Status RunTransaction(engine::Engine* engine, int worker,
                                Rng* rng) = 0;

  /// Transaction-type vocabulary for the module×type attribution matrix
  /// (WindowReport::txn_module_matrix). Single-procedure benchmarks
  /// keep the defaults; mixes (TPC-C) override all three. Last-type
  /// state is per worker: under kInterleaved other workers' transactions
  /// run between a worker's RunTransaction and the harness reading it.
  virtual int NumTransactionTypes() const { return 1; }
  virtual const char* TransactionTypeName(int type) const {
    (void)type;
    return name();
  }
  /// Type of the transaction the most recent RunTransaction on `worker`
  /// executed (stable across the retry loop's re-executions: the RNG is
  /// rewound, so the same type re-runs).
  virtual int LastTransactionType(int worker) const {
    (void)worker;
    return 0;
  }
};

}  // namespace imoltp::core

#endif  // IMOLTP_CORE_WORKLOAD_H_
