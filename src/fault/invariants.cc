#include "fault/invariants.h"

#include <vector>

#include "common/format.h"
#include "obs/json.h"
#include "storage/table.h"

namespace imoltp::fault {

namespace {

using core::TpcbBenchmark;
using core::TpccBenchmark;
using storage::Schema;

/// Transaction-type id of the read-only consistency audits. Distinct
/// from every benchmark transaction so the compiled engines charge it
/// its own (tiny) code footprint.
constexpr int kTxnAudit = 90;

/// Regenerates the initial balance (column 1) of row `row` exactly as
/// the bulk load produced it: TPC-B's tables use the default generator.
int64_t InitialBalance(const Schema& schema, uint64_t row, uint64_t seed) {
  uint8_t buf[128];
  storage::DefaultRowGenerator(schema, static_cast<storage::RowId>(row),
                               seed, buf);
  return schema.GetLong(buf, 1);
}

}  // namespace

void InvariantsToJson(obs::JsonWriter& w, const InvariantReport& rep) {
  w.BeginObject();
  w.KeyValue("ok", rep.ok);
  w.Key("violations");
  w.BeginArray();
  for (const std::string& v : rep.violations) w.Value(v);
  w.EndArray();
  w.Key("checksums");
  w.BeginArray();
  for (int64_t v : rep.checksums) w.Value(v);
  w.EndArray();
  w.EndObject();
}

InvariantReport CheckTpcbInvariants(engine::Engine* engine,
                                    const core::TpcbBenchmark& bench,
                                    int num_workers) {
  InvariantReport rep;
  const std::vector<engine::TableDef> defs = bench.Tables();
  const Schema schema = defs[TpcbBenchmark::kTableBranch].schema;
  const uint64_t branch_seed = defs[TpcbBenchmark::kTableBranch].seed;
  const uint64_t teller_seed = defs[TpcbBenchmark::kTableTeller].seed;
  const uint64_t account_seed = defs[TpcbBenchmark::kTableAccount].seed;
  const uint64_t branches = bench.num_branches();
  const uint64_t accounts_per_branch =
      bench.num_accounts() / branches;

  // The audit measures state, not cycles.
  mcsim::MachineSim* machine = engine->machine();
  machine->SetEnabled(false);

  int64_t branch_total = 0;
  int64_t teller_total = 0;
  int64_t account_total = 0;

  for (int p = 0; p < num_workers; ++p) {
    const uint64_t b_lo =
        branches * static_cast<uint64_t>(p) / num_workers;
    const uint64_t b_hi =
        branches * static_cast<uint64_t>(p + 1) / num_workers;
    if (b_lo == b_hi) continue;

    engine::TxnRequest req;
    req.type = kTxnAudit;
    req.partition_key = b_lo;
    req.key_space = branches;
    req.statements = 1;

    const Status s = engine->Execute(
        p, req, [&](engine::TxnContext& ctx) -> Status {
          uint8_t row[128];
          storage::RowId rid;
          for (uint64_t b = b_lo; b < b_hi; ++b) {
            Status st = ctx.Probe(TpcbBenchmark::kTableBranch,
                                  index::Key::FromUint64(b), &rid);
            if (!st.ok()) return st;
            st = ctx.Read(TpcbBenchmark::kTableBranch, rid, row);
            if (!st.ok()) return st;
            const int64_t branch_delta =
                schema.GetLong(row, 1) -
                InitialBalance(schema, b, branch_seed);

            int64_t teller_delta = 0;
            const uint64_t t_lo = b * TpcbBenchmark::kTellersPerBranch;
            for (uint64_t t = t_lo;
                 t < t_lo + TpcbBenchmark::kTellersPerBranch; ++t) {
              st = ctx.Probe(TpcbBenchmark::kTableTeller,
                             index::Key::FromUint64(t), &rid);
              if (!st.ok()) return st;
              st = ctx.Read(TpcbBenchmark::kTableTeller, rid, row);
              if (!st.ok()) return st;
              teller_delta += schema.GetLong(row, 1) -
                              InitialBalance(schema, t, teller_seed);
            }

            int64_t account_delta = 0;
            const uint64_t a_lo = b * accounts_per_branch;
            for (uint64_t a = a_lo; a < a_lo + accounts_per_branch;
                 ++a) {
              st = ctx.Probe(TpcbBenchmark::kTableAccount,
                             index::Key::FromUint64(a), &rid);
              if (!st.ok()) return st;
              st = ctx.Read(TpcbBenchmark::kTableAccount, rid, row);
              if (!st.ok()) return st;
              account_delta += schema.GetLong(row, 1) -
                               InitialBalance(schema, a, account_seed);
            }

            if (branch_delta != teller_delta ||
                branch_delta != account_delta) {
              rep.Violate(Sprintf(
                  "tpcb branch %llu: balance delta %lld != teller sum "
                  "%lld or account sum %lld",
                  static_cast<unsigned long long>(b),
                  static_cast<long long>(branch_delta),
                  static_cast<long long>(teller_delta),
                  static_cast<long long>(account_delta)));
            }
            branch_total += branch_delta;
            teller_total += teller_delta;
            account_total += account_delta;
          }
          return Status::Ok();
        });
    if (!s.ok()) {
      rep.Violate(Sprintf("tpcb audit on worker %d aborted: %s", p,
                          s.message().c_str()));
    }
  }

  machine->SetEnabled(true);
  rep.checksums = {branch_total, teller_total, account_total,
                   static_cast<int64_t>(branches)};
  return rep;
}

InvariantReport CheckTpccInvariants(engine::Engine* engine,
                                    const core::TpccConfig& config,
                                    int num_workers, TpccSums* sums) {
  InvariantReport rep;
  // Rebuilding the benchmark from the same config reproduces the exact
  // schemas the crashed instance was created with.
  core::TpccBenchmark bench(config);
  const std::vector<engine::TableDef> defs = bench.Tables();
  const Schema wsch = defs[TpccBenchmark::kWarehouse].schema;
  const Schema dsch = defs[TpccBenchmark::kDistrict].schema;
  const Schema csch = defs[TpccBenchmark::kCustomer].schema;
  const Schema osch = defs[TpccBenchmark::kOrder].schema;
  const Schema olsch = defs[TpccBenchmark::kOrderLine].schema;
  const Schema ssch = defs[TpccBenchmark::kStock].schema;
  const uint64_t warehouses = static_cast<uint64_t>(config.warehouses);
  const int64_t orders0 = config.orders_per_district;

  mcsim::MachineSim* machine = engine->machine();
  machine->SetEnabled(false);

  int64_t ytd_total = 0;
  int64_t next_o_total = 0;
  int64_t lines_total = 0;

  for (uint64_t w = 0; w < warehouses; ++w) {
    const int worker =
        static_cast<int>(w * static_cast<uint64_t>(num_workers) /
                         warehouses);
    engine::TxnRequest req;
    req.type = kTxnAudit;
    req.partition_key = w;
    req.key_space = warehouses;
    req.statements = 1;

    const Status s = engine->Execute(
        worker, req, [&](engine::TxnContext& ctx) -> Status {
          uint8_t row[256];
          uint8_t line[256];
          storage::RowId rid;
          Status st = ctx.Probe(TpccBenchmark::kWarehouse,
                                index::Key::FromUint64(w), &rid);
          if (!st.ok()) return st;
          st = ctx.Read(TpccBenchmark::kWarehouse, rid, row);
          if (!st.ok()) return st;
          const int64_t w_ytd = wsch.GetLong(row, 1);
          if (sums != nullptr) sums->w_ytd += w_ytd;

          int64_t d_ytd_sum = 0;
          for (uint64_t d = 0;
               d < TpccBenchmark::kDistrictsPerWarehouse; ++d) {
            st = ctx.Probe(TpccBenchmark::kDistrict,
                           index::Key::FromUint64(
                               TpccBenchmark::DistrictKey(w, d)),
                           &rid);
            if (!st.ok()) return st;
            st = ctx.Read(TpccBenchmark::kDistrict, rid, row);
            if (!st.ok()) return st;
            d_ytd_sum += dsch.GetLong(row, 1);
            const int64_t next_o = dsch.GetLong(row, 2);
            const uint64_t customers =
                sums != nullptr ? TpccBenchmark::kCustomersPerDistrict : 0;
            for (uint64_t c = 0; c < customers; ++c) {
              st = ctx.Probe(TpccBenchmark::kCustomer,
                             index::Key::FromUint64(
                                 TpccBenchmark::CustomerKey(w, d, c)),
                             &rid);
              if (!st.ok()) return st;
              st = ctx.Read(TpccBenchmark::kCustomer, rid, row);
              if (!st.ok()) return st;
              sums->customer_paid += csch.GetLong(row, 2) - 10;
            }
            if (next_o < orders0) {
              rep.Violate(Sprintf(
                  "tpcc w=%llu d=%llu: next_o_id %lld below the "
                  "initial %lld",
                  static_cast<unsigned long long>(w),
                  static_cast<unsigned long long>(d),
                  static_cast<long long>(next_o),
                  static_cast<long long>(orders0)));
              continue;
            }
            next_o_total += next_o;

            // Every order NewOrder committed must exist with all of
            // its lines (they are logged atomically with the commit).
            for (int64_t o = orders0; o < next_o; ++o) {
              const uint64_t okey = TpccBenchmark::OrderKey(
                  w, d, static_cast<uint64_t>(o));
              st = ctx.Probe(TpccBenchmark::kOrder,
                             index::Key::FromUint64(okey), &rid);
              if (!st.ok()) {
                rep.Violate(Sprintf(
                    "tpcc w=%llu d=%llu: committed order %lld missing",
                    static_cast<unsigned long long>(w),
                    static_cast<unsigned long long>(d),
                    static_cast<long long>(o)));
                continue;
              }
              st = ctx.Read(TpccBenchmark::kOrder, rid, row);
              if (!st.ok()) return st;
              const int64_t ol_cnt = osch.GetLong(row, 2);
              if (ol_cnt < 1 || ol_cnt > 15) {
                rep.Violate(Sprintf(
                    "tpcc w=%llu d=%llu o=%lld: implausible ol_cnt "
                    "%lld",
                    static_cast<unsigned long long>(w),
                    static_cast<unsigned long long>(d),
                    static_cast<long long>(o),
                    static_cast<long long>(ol_cnt)));
                continue;
              }
              std::vector<storage::RowId> rows;
              st = ctx.Scan(TpccBenchmark::kOrderLine,
                            index::Key::FromUint64(
                                TpccBenchmark::OrderLineKey(
                                    w, d, static_cast<uint64_t>(o), 0)),
                            static_cast<uint64_t>(ol_cnt) + 1, &rows);
              if (!st.ok()) return st;
              int64_t matched = 0;
              for (storage::RowId lr : rows) {
                st = ctx.Read(TpccBenchmark::kOrderLine, lr, line);
                if (!st.ok()) return st;
                const uint64_t lkey =
                    static_cast<uint64_t>(olsch.GetLong(line, 0));
                if ((lkey >> 8) != okey) continue;
                ++matched;
                if (sums != nullptr) {
                  sums->order_line_qty += olsch.GetLong(line, 2);
                }
              }
              if (matched != ol_cnt) {
                rep.Violate(Sprintf(
                    "tpcc w=%llu d=%llu o=%lld: %lld of %lld order "
                    "lines present",
                    static_cast<unsigned long long>(w),
                    static_cast<unsigned long long>(d),
                    static_cast<long long>(o),
                    static_cast<long long>(matched),
                    static_cast<long long>(ol_cnt)));
              }
              lines_total += matched;
            }
          }

          const uint64_t stock =
              sums != nullptr ? TpccBenchmark::kStockPerWarehouse : 0;
          for (uint64_t i = 0; i < stock; ++i) {
            st = ctx.Probe(TpccBenchmark::kStock,
                           index::Key::FromUint64(
                               TpccBenchmark::StockKey(w, i)),
                           &rid);
            if (!st.ok()) return st;
            st = ctx.Read(TpccBenchmark::kStock, rid, row);
            if (!st.ok()) return st;
            sums->stock_ytd += ssch.GetLong(row, 2);
          }

          if (w_ytd != d_ytd_sum) {
            rep.Violate(Sprintf(
                "tpcc w=%llu: W_YTD %lld != district YTD sum %lld",
                static_cast<unsigned long long>(w),
                static_cast<long long>(w_ytd),
                static_cast<long long>(d_ytd_sum)));
          }
          ytd_total += w_ytd;
          return Status::Ok();
        });
    if (!s.ok()) {
      rep.Violate(Sprintf("tpcc audit of warehouse %llu aborted: %s",
                          static_cast<unsigned long long>(w),
                          s.message().c_str()));
      if (sums != nullptr) sums->complete = false;
    }
  }

  machine->SetEnabled(true);
  rep.checksums = {ytd_total, next_o_total, lines_total,
                   static_cast<int64_t>(warehouses)};
  return rep;
}

}  // namespace imoltp::fault
