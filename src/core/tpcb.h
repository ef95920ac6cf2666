#ifndef IMOLTP_CORE_TPCB_H_
#define IMOLTP_CORE_TPCB_H_

#include "core/workload.h"

namespace imoltp::core {

/// TPC-B (paper Section 5.1): a banking system with Branch, Teller,
/// Account, and History tables and a single AccountUpdate transaction
/// that updates one row in each of the first three tables and appends to
/// History. Branch and Teller are small (high data locality); Account is
/// the large, low-locality table.
struct TpcbConfig {
  /// Nominal database size; Account dominates it.
  uint64_t nominal_bytes = 100ULL << 30;
  uint64_t max_resident_accounts = 2'000'000;
  int num_partitions = 1;
};

class TpcbBenchmark final : public Workload {
 public:
  explicit TpcbBenchmark(const TpcbConfig& config);

  const char* name() const override { return "tpcb"; }
  std::vector<engine::TableDef> Tables() const override;
  Status RunTransaction(engine::Engine* engine, int worker,
                        Rng* rng) override;

  uint64_t num_branches() const { return branches_; }
  uint64_t num_accounts() const { return accounts_; }

  static constexpr int kTableBranch = 0;
  static constexpr int kTableTeller = 1;
  static constexpr int kTableAccount = 2;
  static constexpr int kTableHistory = 3;
  static constexpr int kTxnAccountUpdate = 10;

  /// TPC-B ratios: 10 tellers and 100K accounts per branch (scaled).
  static constexpr uint64_t kTellersPerBranch = 10;

 private:
  TpcbConfig config_;
  uint64_t branches_;
  uint64_t tellers_;
  uint64_t accounts_;
  uint64_t accounts_per_branch_;
  uint64_t history_counter_ = 0;
};

}  // namespace imoltp::core

#endif  // IMOLTP_CORE_TPCB_H_
