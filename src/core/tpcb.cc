#include "core/tpcb.h"

#include <cstring>

namespace imoltp::core {

namespace {

using storage::ColumnType;
using storage::Schema;

// Branch/Teller/Account: [id, balance, filler]; History: [id, amount,
// filler]. The 50-byte String filler approximates TPC-B's ~100-byte rows.
const Schema& RowSchema() {
  static const Schema schema({ColumnType::kLong, ColumnType::kLong,
                              ColumnType::kString});
  return schema;
}

constexpr uint64_t kAccountFootprint = 110;  // bytes per populated account

}  // namespace

TpcbBenchmark::TpcbBenchmark(const TpcbConfig& config) : config_(config) {
  accounts_ = config.nominal_bytes / kAccountFootprint;
  if (accounts_ > config.max_resident_accounts) {
    accounts_ = config.max_resident_accounts;
  }
  // Keep the TPC-B shape: small Branch/Teller cardinalities relative to
  // Account (1 : 10 : 100000 in the spec; the account scale-down keeps
  // Branch/Teller LLC-resident exactly as at full scale).
  branches_ = accounts_ / 100000;
  const uint64_t parts = static_cast<uint64_t>(config.num_partitions);
  if (branches_ < parts) branches_ = parts;
  if (branches_ < 4) branches_ = 4;
  branches_ = (branches_ + parts - 1) / parts * parts;  // divisible
  tellers_ = branches_ * kTellersPerBranch;
  accounts_per_branch_ = accounts_ / branches_;
  accounts_ = accounts_per_branch_ * branches_;
}

std::vector<engine::TableDef> TpcbBenchmark::Tables() const {
  std::vector<engine::TableDef> defs(4);
  defs[kTableBranch].name = "branch";
  defs[kTableBranch].schema = RowSchema();
  defs[kTableBranch].initial_rows = branches_;
  defs[kTableBranch].seed = 11;

  defs[kTableTeller].name = "teller";
  defs[kTableTeller].schema = RowSchema();
  defs[kTableTeller].initial_rows = tellers_;
  defs[kTableTeller].seed = 12;

  defs[kTableAccount].name = "account";
  defs[kTableAccount].schema = RowSchema();
  defs[kTableAccount].initial_rows = accounts_;
  defs[kTableAccount].nominal_bytes = config_.nominal_bytes;
  defs[kTableAccount].seed = 13;

  defs[kTableHistory].name = "history";
  defs[kTableHistory].schema = RowSchema();
  defs[kTableHistory].initial_rows = 0;
  defs[kTableHistory].seed = 14;
  defs[kTableHistory].no_primary_index = true;
  return defs;
}

Status TpcbBenchmark::RunTransaction(engine::Engine* engine, int worker,
                                     Rng* rng) {
  const int parts = config_.num_partitions;
  const uint64_t branch_lo = branches_ * worker / parts;
  const uint64_t branch_hi = branches_ * (worker + 1) / parts;

  // The body captures one pointer to these, so it fits std::function's
  // small buffer and a transaction allocates no closure on the heap.
  struct Params {
    uint64_t branch;
    uint64_t teller;
    uint64_t account;
    int64_t delta;
    uint64_t history_id;
  };
  Params p;
  p.branch = rng->Range(branch_lo, branch_hi - 1);
  p.teller = p.branch * kTellersPerBranch + rng->Uniform(kTellersPerBranch);
  p.account = p.branch * accounts_per_branch_ +
              rng->Uniform(accounts_per_branch_);
  p.delta = static_cast<int64_t>(rng->Uniform(1999999)) - 999999;
  p.history_id =
      (static_cast<uint64_t>(worker) << 40) | history_counter_++;

  engine::TxnRequest req;
  req.type = kTxnAccountUpdate;
  req.partition_key = p.branch;
  req.key_space = branches_;
  req.statements = 4;  // three updates + one insert

  return engine->Execute(worker, req, [&p](engine::TxnContext& ctx) {
    uint8_t row[128];
    const Schema& schema = RowSchema();

    // Update the account balance.
    storage::RowId rid;
    Status s = ctx.Probe(kTableAccount, index::Key::FromUint64(p.account),
                         &rid);
    if (!s.ok()) return s;
    s = ctx.Read(kTableAccount, rid, row);
    if (!s.ok()) return s;
    int64_t balance = schema.GetLong(row, 1) + p.delta;
    s = ctx.Update(kTableAccount, rid, 1, &balance);
    if (!s.ok()) return s;

    // Update the teller balance.
    s = ctx.Probe(kTableTeller, index::Key::FromUint64(p.teller), &rid);
    if (!s.ok()) return s;
    s = ctx.Read(kTableTeller, rid, row);
    if (!s.ok()) return s;
    balance = schema.GetLong(row, 1) + p.delta;
    s = ctx.Update(kTableTeller, rid, 1, &balance);
    if (!s.ok()) return s;

    // Update the branch balance.
    s = ctx.Probe(kTableBranch, index::Key::FromUint64(p.branch), &rid);
    if (!s.ok()) return s;
    s = ctx.Read(kTableBranch, rid, row);
    if (!s.ok()) return s;
    balance = schema.GetLong(row, 1) + p.delta;
    s = ctx.Update(kTableBranch, rid, 1, &balance);
    if (!s.ok()) return s;

    // Append to History.
    uint8_t hist[128];
    schema.SetLong(hist, 0, static_cast<int64_t>(p.history_id));
    schema.SetLong(hist, 1, p.delta);
    std::memset(schema.ColumnPtr(hist, 2), 'h', storage::kStringBytes);
    return ctx.Insert(kTableHistory, hist,
                      index::Key::FromUint64(p.history_id));
  });
}

}  // namespace imoltp::core
