#include "core/tpcc.h"

#include <algorithm>
#include <cstring>

namespace imoltp::core {

namespace {

using storage::ColumnType;
using storage::RowId;
using storage::Schema;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// Initial-row generators are plain function pointers (they also run
// lazily when sparse tables materialize rows), so the scale parameters
// travel inside the table seed: bits [0,24) = orders per district,
// bits [24,40) = warehouses.
uint64_t PackLayout(uint64_t warehouses, uint64_t orders) {
  return (warehouses << 24) | orders;
}
uint64_t LayoutOrders(uint64_t seed) { return seed & 0xffffff; }

void FillString(const Schema& schema, uint8_t* row, uint32_t col,
                uint64_t h) {
  char* dst = reinterpret_cast<char*>(schema.ColumnPtr(row, col));
  for (uint32_t i = 0; i < storage::kStringBytes; ++i) {
    dst[i] = static_cast<char>('a' + ((h >> (i % 56)) + i) % 26);
  }
}

Schema WarehouseSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kString});
}
Schema DistrictSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kString});
}
Schema CustomerSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kLong, ColumnType::kString});
}
Schema HistorySchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kString});
}
Schema OrderSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kLong});
}
Schema NewOrderSchema() { return Schema({ColumnType::kLong}); }
Schema OrderLineSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kLong, ColumnType::kString});
}
Schema ItemSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kString});
}
Schema StockSchema() {
  return Schema({ColumnType::kLong, ColumnType::kLong, ColumnType::kLong,
                 ColumnType::kLong, ColumnType::kString});
}

// Primary keys of the initial rows, in closed form: one helper per
// table, shared by its row generator (column 0) and its key_of.
uint64_t WarehousePk(RowId r) { return r; }

uint64_t DistrictPk(RowId r) {
  return TpccBenchmark::DistrictKey(
      r / TpccBenchmark::kDistrictsPerWarehouse,
      r % TpccBenchmark::kDistrictsPerWarehouse);
}

uint64_t CustomerPk(RowId r) {
  const uint64_t per_w = TpccBenchmark::kDistrictsPerWarehouse *
                         TpccBenchmark::kCustomersPerDistrict;
  const uint64_t w = r / per_w;
  const uint64_t d =
      (r % per_w) / TpccBenchmark::kCustomersPerDistrict;
  const uint64_t c = r % TpccBenchmark::kCustomersPerDistrict;
  return TpccBenchmark::CustomerKey(w, d, c);
}

uint64_t OrderPk(RowId r, uint64_t seed) {
  const uint64_t orders = LayoutOrders(seed);
  const uint64_t per_w = TpccBenchmark::kDistrictsPerWarehouse * orders;
  const uint64_t w = r / per_w;
  const uint64_t d = (r % per_w) / orders;
  const uint64_t o = r % orders;
  return TpccBenchmark::OrderKey(w, d, o);
}

uint64_t NewOrderPk(RowId r, uint64_t seed) {
  // The newest third of each district's initial orders are undelivered.
  const uint64_t orders = LayoutOrders(seed);
  const uint64_t pending = orders / 3;
  const uint64_t per_w = TpccBenchmark::kDistrictsPerWarehouse * pending;
  const uint64_t w = r / per_w;
  const uint64_t d = (r % per_w) / pending;
  const uint64_t o = orders - pending + (r % pending);
  return TpccBenchmark::OrderKey(w, d, o);
}

constexpr uint64_t kLinesPerInitialOrder = 10;

uint64_t OrderLinePk(RowId r, uint64_t seed) {
  const uint64_t orders = LayoutOrders(seed);
  const uint64_t order_r = r / kLinesPerInitialOrder;
  const uint64_t l = r % kLinesPerInitialOrder;
  const uint64_t per_w = TpccBenchmark::kDistrictsPerWarehouse * orders;
  const uint64_t w = order_r / per_w;
  const uint64_t d = (order_r % per_w) / orders;
  const uint64_t o = order_r % orders;
  return TpccBenchmark::OrderLineKey(w, d, o, l);
}

uint64_t ItemPk(RowId r) { return r; }

uint64_t StockPk(RowId r) {
  return TpccBenchmark::StockKey(r / TpccBenchmark::kStockPerWarehouse,
                                 r % TpccBenchmark::kStockPerWarehouse);
}

void GenWarehouse(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(WarehousePk(r)));
  s.SetLong(out, 1, 0);  // ytd
  FillString(s, out, 2, Mix64(seed ^ r));
}

void GenDistrict(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(DistrictPk(r)));
  s.SetLong(out, 1, 0);  // ytd
  s.SetLong(out, 2, static_cast<int64_t>(LayoutOrders(seed)));  // next o
  FillString(s, out, 3, Mix64(seed ^ r));
}

void GenCustomer(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(CustomerPk(r)));
  s.SetLong(out, 1, -10);  // balance
  s.SetLong(out, 2, 10);   // ytd payment
  s.SetLong(out, 3, 1);    // payment count
  FillString(s, out, 4, Mix64(seed ^ r));
}

void GenOrder(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(OrderPk(r, seed)));
  s.SetLong(out, 1,
            static_cast<int64_t>(Mix64(seed ^ r) %
                                 TpccBenchmark::kCustomersPerDistrict));
  s.SetLong(out, 2, 10);  // ol_cnt: initial orders have 10 lines
  s.SetLong(out, 3, static_cast<int64_t>(1 + Mix64(r) % 10));  // carrier
}

void GenNewOrder(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(NewOrderPk(r, seed)));
}

void GenOrderLine(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(OrderLinePk(r, seed)));
  s.SetLong(out, 1,
            static_cast<int64_t>(Mix64(seed ^ r) % TpccBenchmark::kItems));
  s.SetLong(out, 2, 5);                                    // quantity
  s.SetLong(out, 3, static_cast<int64_t>(Mix64(r) % 9999));  // amount
  FillString(s, out, 4, Mix64(seed ^ (r * 3)));
}

void GenItem(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(ItemPk(r)));
  s.SetLong(out, 1, static_cast<int64_t>(100 + Mix64(seed ^ r) % 9900));
  FillString(s, out, 2, Mix64(seed ^ r));
}

void GenStock(const Schema& s, RowId r, uint64_t seed, uint8_t* out) {
  s.SetLong(out, 0, static_cast<int64_t>(StockPk(r)));
  s.SetLong(out, 1, static_cast<int64_t>(10 + Mix64(seed ^ r) % 91));
  s.SetLong(out, 2, 0);  // ytd
  s.SetLong(out, 3, 0);  // order count
  FillString(s, out, 4, Mix64(seed ^ (r * 5)));
}

index::Key KeyWarehouse(const Schema&, RowId r, uint64_t) {
  return index::Key::FromUint64(WarehousePk(r));
}
index::Key KeyDistrict(const Schema&, RowId r, uint64_t) {
  return index::Key::FromUint64(DistrictPk(r));
}
index::Key KeyCustomer(const Schema&, RowId r, uint64_t) {
  return index::Key::FromUint64(CustomerPk(r));
}
index::Key KeyOrder(const Schema&, RowId r, uint64_t seed) {
  return index::Key::FromUint64(OrderPk(r, seed));
}
index::Key KeyNewOrder(const Schema&, RowId r, uint64_t seed) {
  return index::Key::FromUint64(NewOrderPk(r, seed));
}
index::Key KeyOrderLine(const Schema&, RowId r, uint64_t seed) {
  return index::Key::FromUint64(OrderLinePk(r, seed));
}
index::Key KeyItem(const Schema&, RowId r, uint64_t) {
  return index::Key::FromUint64(ItemPk(r));
}
index::Key KeyStock(const Schema&, RowId r, uint64_t) {
  return index::Key::FromUint64(StockPk(r));
}

// Secondary keys derived from row images (maintained on insert/delete).
index::Key CustomerNameSecondary(const Schema& s, const uint8_t* row) {
  const uint64_t ckey = static_cast<uint64_t>(s.GetLong(row, 0));
  const uint64_t w = ckey >> 20;
  const uint64_t d = (ckey >> 16) & 0xf;
  const uint64_t c = ckey & 0xffff;
  return index::Key::FromUint64(TpccBenchmark::CustomerNameKey(
      w, d, TpccBenchmark::LastNameBucket(c), c));
}

index::Key OrderCustomerSecondary(const Schema& s, const uint8_t* row) {
  const uint64_t okey = static_cast<uint64_t>(s.GetLong(row, 0));
  const uint64_t w = okey >> 28;
  const uint64_t d = (okey >> 24) & 0xf;
  const uint64_t o = okey & 0xffffff;
  const uint64_t c = static_cast<uint64_t>(s.GetLong(row, 1));
  return index::Key::FromUint64(
      TpccBenchmark::OrderCustomerKey(w, d, c, o));
}

// Full-scale per-row footprints (TPC-C clause 1.2 row sizes): the
// sparse-address spread preserves the true working-set : LLC ratio.
constexpr uint64_t kCustomerNominal = 655;
constexpr uint64_t kStockNominal = 306;
constexpr uint64_t kOrderLineNominal = 54;

}  // namespace

TpccBenchmark::TpccBenchmark(const TpccConfig& config)
    : config_(config),
      last_type_(static_cast<size_t>(std::max(1, config.num_partitions))) {}

const char* TpccBenchmark::TransactionTypeName(int type) const {
  switch (type) {
    case 0: return "new_order";
    case 1: return "payment";
    case 2: return "order_status";
    case 3: return "delivery";
    case 4: return "stock_level";
    default: return "?";
  }
}

int TpccBenchmark::LastTransactionType(int worker) const {
  if (worker < 0 || static_cast<size_t>(worker) >= last_type_.size()) {
    return 0;
  }
  return last_type_[worker];
}

std::vector<engine::TableDef> TpccBenchmark::Tables() const {
  const uint64_t w = static_cast<uint64_t>(config_.warehouses);
  const uint64_t orders =
      static_cast<uint64_t>(config_.orders_per_district);
  const uint64_t layout = PackLayout(w, orders);
  std::vector<engine::TableDef> defs(9);

  defs[kWarehouse] = {.name = "warehouse",
                      .schema = WarehouseSchema(),
                      .initial_rows = w,
                      .generator = GenWarehouse,
                      .seed = layout,
                      .key_of = KeyWarehouse,
                      .secondaries = {}};
  defs[kDistrict] = {.name = "district",
                     .schema = DistrictSchema(),
                     .initial_rows = w * kDistrictsPerWarehouse,
                     .generator = GenDistrict,
                     .seed = layout,
                     .key_of = KeyDistrict,
                     .secondaries = {}};
  defs[kCustomer] = {.name = "customer",
                     .schema = CustomerSchema(),
                     .initial_rows =
                         w * kDistrictsPerWarehouse * kCustomersPerDistrict,
                     .generator = GenCustomer,
                     .seed = layout,
                     .key_of = KeyCustomer,
                     .secondaries = {{"customer-by-name",
                                      CustomerNameSecondary}}};
  defs[kCustomer].nominal_bytes =
      defs[kCustomer].initial_rows * kCustomerNominal;
  defs[kHistory] = {.name = "history",
                    .schema = HistorySchema(),
                    .initial_rows = 0,
                    .seed = layout,
                    .no_primary_index = true,
                    .secondaries = {}};
  defs[kOrder] = {.name = "order",
                  .schema = OrderSchema(),
                  .initial_rows = w * kDistrictsPerWarehouse * orders,
                  .generator = GenOrder,
                  .seed = layout,
                  .key_of = KeyOrder,
                  .secondaries = {{"order-by-customer",
                                   OrderCustomerSecondary}}};
  defs[kNewOrder] = {.name = "new_order",
                     .schema = NewOrderSchema(),
                     .initial_rows =
                         w * kDistrictsPerWarehouse * (orders / 3),
                     .generator = GenNewOrder,
                     .seed = layout,
                     .key_of = KeyNewOrder,
                     .needs_ordered_index = true,
                     .secondaries = {}};
  defs[kOrderLine] = {.name = "order_line",
                      .schema = OrderLineSchema(),
                      .initial_rows =
                          w * kDistrictsPerWarehouse * orders * 10,
                      .generator = GenOrderLine,
                      .seed = layout,
                      .key_of = KeyOrderLine,
                      .needs_ordered_index = true,
                      .secondaries = {}};
  defs[kOrderLine].nominal_bytes =
      defs[kOrderLine].initial_rows * kOrderLineNominal;
  defs[kItem] = {.name = "item",
                 .schema = ItemSchema(),
                 .initial_rows = kItems,
                 .generator = GenItem,
                 .seed = layout,
                 .key_of = KeyItem,
                 .replicated = true,
                 .secondaries = {}};
  defs[kStock] = {.name = "stock",
                  .schema = StockSchema(),
                  .initial_rows = w * kStockPerWarehouse,
                  .generator = GenStock,
                  .seed = layout,
                  .key_of = KeyStock,
                  .secondaries = {}};
  defs[kStock].nominal_bytes = defs[kStock].initial_rows * kStockNominal;
  return defs;
}

engine::TxnRequest TpccBenchmark::Request(int type, uint64_t w) const {
  engine::TxnRequest req;
  req.type = type;
  req.partition_key = w;
  req.key_space = static_cast<uint64_t>(config_.warehouses);
  switch (type) {  // SQL statements per procedure (loop bodies excluded)
    case kTxnNewOrder: req.statements = 10; break;
    case kTxnPayment: req.statements = 6; break;
    case kTxnOrderStatus: req.statements = 4; break;
    case kTxnDelivery: req.statements = 8; break;
    default: req.statements = 4; break;
  }
  return req;
}

engine::TxnRequest TpccBenchmark::FragmentRequest(int type, uint64_t w,
                                                  int statements) const {
  engine::TxnRequest req = Request(type, w);
  req.statements = statements;
  return req;
}

Status TpccBenchmark::RunTransaction(engine::Engine* engine, int worker,
                                     Rng* rng) {
  const int parts = config_.num_partitions;
  const uint64_t w_lo =
      static_cast<uint64_t>(config_.warehouses) * worker / parts;
  const uint64_t w_hi =
      static_cast<uint64_t>(config_.warehouses) * (worker + 1) / parts;
  const uint64_t w = rng->Range(w_lo, w_hi - 1);

  // Standard TPC-C mix. The dispatched type is recorded per worker so
  // the harness can attribute the transaction's cycles to it; a retry
  // rewinds the RNG, so re-execution re-records the same type.
  auto record = [&](int type) {
    if (static_cast<size_t>(worker) < last_type_.size()) {
      last_type_[worker] = type;
    }
  };
  const uint64_t roll = rng->Uniform(100);
  if (roll < 45) {
    ++mix_.new_order;
    record(0);
    return RunNewOrder(engine, worker, rng, w);
  }
  if (roll < 88) {
    ++mix_.payment;
    record(1);
    return RunPayment(engine, worker, rng, w);
  }
  if (roll < 92) {
    ++mix_.order_status;
    record(2);
    return RunOrderStatus(engine, worker, rng, w);
  }
  if (roll < 96) {
    ++mix_.delivery;
    record(3);
    return RunDelivery(engine, worker, rng, w);
  }
  ++mix_.stock_level;
  record(4);
  return RunStockLevel(engine, worker, rng, w);
}

Status TpccBenchmark::RunNewOrder(engine::Engine* engine, int worker,
                                  Rng* rng, uint64_t w) {
  NewOrderParams p;
  p.d = rng->Uniform(kDistrictsPerWarehouse);
  p.c = rng->NonUniform(1023, 259, 0, kCustomersPerDistrict - 1);
  p.ol_cnt = static_cast<int>(rng->Range(5, 15));
  for (int i = 0; i < p.ol_cnt; ++i) {
    p.items[i] = rng->NonUniform(8191, 7911, 0, kItems - 1);
    p.quantities[i] = rng->Range(1, 10);
  }
  return ExecuteNewOrderHome(engine, worker, w, p);
}

Status TpccBenchmark::ExecuteNewOrderHome(engine::Engine* engine,
                                          int worker, uint64_t w,
                                          const NewOrderParams& p) {
  const uint64_t d = p.d;
  const uint64_t c = p.c;
  const int ol_cnt = p.ol_cnt;
  const uint64_t* items = p.items;
  const uint64_t* quantities = p.quantities;

  return engine->Execute(
      worker, Request(kTxnNewOrder, w), [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;

        // Warehouse: read tax rate.
        Status s = ctx.Probe(kWarehouse, index::Key::FromUint64(w), &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kWarehouse, rid, row);
        if (!s.ok()) return s;

        // District: read and advance the next order number.
        const Schema dsch = DistrictSchema();
        s = ctx.Probe(kDistrict,
                      index::Key::FromUint64(DistrictKey(w, d)), &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kDistrict, rid, row);
        if (!s.ok()) return s;
        const uint64_t o_id =
            static_cast<uint64_t>(dsch.GetLong(row, 2));
        const int64_t next = static_cast<int64_t>(o_id + 1);
        s = ctx.Update(kDistrict, rid, 2, &next);
        if (!s.ok()) return s;

        // Customer: read discount/credit.
        s = ctx.Probe(kCustomer,
                      index::Key::FromUint64(CustomerKey(w, d, c)), &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kCustomer, rid, row);
        if (!s.ok()) return s;

        // Insert the order and its new-order entry.
        const Schema osch = OrderSchema();
        uint8_t orow[64];
        osch.SetLong(orow, 0, static_cast<int64_t>(OrderKey(w, d, o_id)));
        osch.SetLong(orow, 1, static_cast<int64_t>(c));
        osch.SetLong(orow, 2, ol_cnt);
        osch.SetLong(orow, 3, 0);  // no carrier yet
        s = ctx.Insert(kOrder, orow,
                       index::Key::FromUint64(OrderKey(w, d, o_id)));
        if (!s.ok()) return s;
        uint8_t norow[16];
        NewOrderSchema().SetLong(norow, 0,
                                 static_cast<int64_t>(OrderKey(w, d, o_id)));
        s = ctx.Insert(kNewOrder, norow,
                       index::Key::FromUint64(OrderKey(w, d, o_id)));
        if (!s.ok()) return s;

        // Order lines: item read, stock update, order-line insert.
        const Schema ssch = StockSchema();
        const Schema olsch = OrderLineSchema();
        const Schema isch = ItemSchema();
        for (int i = 0; i < ol_cnt; ++i) {
          s = ctx.Probe(kItem, index::Key::FromUint64(items[i]), &rid);
          if (!s.ok()) return s;
          s = ctx.Read(kItem, rid, row);
          if (!s.ok()) return s;
          const int64_t price = isch.GetLong(row, 1);

          // Remote-supplied lines: the stock leg belongs to the
          // supplying node's fragment, not this one.
          if ((p.remote_mask >> i & 1) == 0) {
            s = ctx.Probe(kStock,
                          index::Key::FromUint64(StockKey(w, items[i])),
                          &rid);
            if (!s.ok()) return s;
            s = ctx.Read(kStock, rid, row);
            if (!s.ok()) return s;
            int64_t qty = ssch.GetLong(row, 1);
            qty = qty > static_cast<int64_t>(quantities[i]) + 10
                      ? qty - static_cast<int64_t>(quantities[i])
                      : qty - static_cast<int64_t>(quantities[i]) + 91;
            s = ctx.Update(kStock, rid, 1, &qty);
            if (!s.ok()) return s;
            const int64_t ytd = ssch.GetLong(row, 2) +
                                static_cast<int64_t>(quantities[i]);
            s = ctx.Update(kStock, rid, 2, &ytd);
            if (!s.ok()) return s;
          }

          uint8_t olrow[160];
          olsch.SetLong(
              olrow, 0,
              static_cast<int64_t>(OrderLineKey(
                  w, d, o_id, static_cast<uint64_t>(i))));
          olsch.SetLong(olrow, 1, static_cast<int64_t>(items[i]));
          olsch.SetLong(olrow, 2, static_cast<int64_t>(quantities[i]));
          olsch.SetLong(olrow, 3,
                        price * static_cast<int64_t>(quantities[i]));
          std::memset(olsch.ColumnPtr(olrow, 4), 'd',
                      storage::kStringBytes);
          s = ctx.Insert(
              kOrderLine, olrow,
              index::Key::FromUint64(OrderLineKey(
                  w, d, o_id, static_cast<uint64_t>(i))));
          if (!s.ok()) return s;
        }
        return Status::Ok();
      });
}

Status TpccBenchmark::ExecuteNewOrderRemoteStock(engine::Engine* engine,
                                                 int worker, uint64_t w,
                                                 const NewOrderParams& p) {
  return engine->Execute(
      worker, FragmentRequest(kTxnNewOrder, w, /*statements=*/2),
      [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;
        const Schema ssch = StockSchema();
        for (int i = 0; i < p.ol_cnt; ++i) {
          if ((p.remote_mask >> i & 1) == 0) continue;
          Status s = ctx.Probe(
              kStock, index::Key::FromUint64(StockKey(w, p.items[i])),
              &rid);
          if (!s.ok()) return s;
          s = ctx.Read(kStock, rid, row);
          if (!s.ok()) return s;
          int64_t qty = ssch.GetLong(row, 1);
          qty = qty > static_cast<int64_t>(p.quantities[i]) + 10
                    ? qty - static_cast<int64_t>(p.quantities[i])
                    : qty - static_cast<int64_t>(p.quantities[i]) + 91;
          s = ctx.Update(kStock, rid, 1, &qty);
          if (!s.ok()) return s;
          const int64_t ytd = ssch.GetLong(row, 2) +
                              static_cast<int64_t>(p.quantities[i]);
          s = ctx.Update(kStock, rid, 2, &ytd);
          if (!s.ok()) return s;
        }
        return Status::Ok();
      });
}

Status TpccBenchmark::RunPayment(engine::Engine* engine, int worker,
                                 Rng* rng, uint64_t w) {
  PaymentParams p;
  p.d = rng->Uniform(kDistrictsPerWarehouse);
  // Clause 2.5.1.2: 60% of payments select the customer by last name,
  // 40% by id.
  p.by_name = rng->Uniform(100) < 60;
  p.c = rng->NonUniform(1023, 259, 0, kCustomersPerDistrict - 1);
  p.name_bucket = rng->NonUniform(255, 223, 0, 999);
  p.amount = static_cast<int64_t>(rng->Range(100, 500000));
  p.history_id = NextHistoryId(worker);
  return ExecutePaymentHome(engine, worker, w, p);
}

Status TpccBenchmark::ExecutePaymentHome(engine::Engine* engine,
                                         int worker, uint64_t w,
                                         const PaymentParams& p) {
  return engine->Execute(
      worker, Request(kTxnPayment, w), [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;

        const Schema wsch = WarehouseSchema();
        Status s = ctx.Probe(kWarehouse, index::Key::FromUint64(w), &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kWarehouse, rid, row);
        if (!s.ok()) return s;
        int64_t ytd = wsch.GetLong(row, 1) + p.amount;
        s = ctx.Update(kWarehouse, rid, 1, &ytd);
        if (!s.ok()) return s;

        const Schema dsch = DistrictSchema();
        s = ctx.Probe(kDistrict,
                      index::Key::FromUint64(DistrictKey(w, p.d)), &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kDistrict, rid, row);
        if (!s.ok()) return s;
        ytd = dsch.GetLong(row, 1) + p.amount;
        s = ctx.Update(kDistrict, rid, 1, &ytd);
        if (!s.ok()) return s;

        // A remote payment's customer leg runs at the customer's node
        // (ExecutePaymentCustomer); only W_YTD/D_YTD/history are home.
        if (!p.customer_remote) {
          const Schema csch = CustomerSchema();
          if (p.by_name) {
            s = SelectCustomerByName(ctx, w, p.d, p.name_bucket, &rid);
          } else {
            s = ctx.Probe(
                kCustomer,
                index::Key::FromUint64(CustomerKey(w, p.d, p.c)), &rid);
          }
          if (!s.ok()) return s;
          s = ctx.Read(kCustomer, rid, row);
          if (!s.ok()) return s;
          const int64_t balance = csch.GetLong(row, 1) - p.amount;
          s = ctx.Update(kCustomer, rid, 1, &balance);
          if (!s.ok()) return s;
          const int64_t paid = csch.GetLong(row, 2) + p.amount;
          s = ctx.Update(kCustomer, rid, 2, &paid);
          if (!s.ok()) return s;
        }

        uint8_t hrow[160];
        const Schema hsch = HistorySchema();
        hsch.SetLong(hrow, 0, static_cast<int64_t>(p.history_id));
        hsch.SetLong(hrow, 1, p.amount);
        std::memset(hsch.ColumnPtr(hrow, 2), 'p', storage::kStringBytes);
        return ctx.Insert(kHistory, hrow,
                          index::Key::FromUint64(p.history_id));
      });
}

Status TpccBenchmark::ExecutePaymentCustomer(engine::Engine* engine,
                                             int worker, uint64_t w,
                                             const PaymentParams& p) {
  return engine->Execute(
      worker, FragmentRequest(kTxnPayment, w, /*statements=*/3),
      [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;
        const Schema csch = CustomerSchema();
        Status s;
        if (p.by_name) {
          s = SelectCustomerByName(ctx, w, p.d, p.name_bucket, &rid);
        } else {
          s = ctx.Probe(kCustomer,
                        index::Key::FromUint64(CustomerKey(w, p.d, p.c)),
                        &rid);
        }
        if (!s.ok()) return s;
        s = ctx.Read(kCustomer, rid, row);
        if (!s.ok()) return s;
        const int64_t balance = csch.GetLong(row, 1) - p.amount;
        s = ctx.Update(kCustomer, rid, 1, &balance);
        if (!s.ok()) return s;
        const int64_t paid = csch.GetLong(row, 2) + p.amount;
        return ctx.Update(kCustomer, rid, 2, &paid);
      });
}

Status TpccBenchmark::RunOrderStatus(engine::Engine* engine, int worker,
                                     Rng* rng, uint64_t w) {
  const uint64_t d = rng->Uniform(kDistrictsPerWarehouse);
  // Clause 2.6.1.2: 60% by last name, 40% by id.
  const bool by_name = rng->Uniform(100) < 60;
  const uint64_t c_in = rng->NonUniform(1023, 259, 0,
                                        kCustomersPerDistrict - 1);
  const uint64_t name_bucket = rng->NonUniform(255, 223, 0, 999);
  return ExecuteOrderStatus(engine, worker, w, d, c_in, name_bucket,
                            by_name);
}

Status TpccBenchmark::ExecuteOrderStatus(engine::Engine* engine,
                                         int worker, uint64_t w,
                                         uint64_t d, uint64_t c_in,
                                         uint64_t name_bucket,
                                         bool by_name) {
  return engine->Execute(
      worker, Request(kTxnOrderStatus, w), [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;

        Status s;
        if (by_name) {
          s = SelectCustomerByName(ctx, w, d, name_bucket, &rid);
        } else {
          s = ctx.Probe(kCustomer,
                        index::Key::FromUint64(CustomerKey(w, d, c_in)),
                        &rid);
        }
        if (!s.ok()) return s;
        s = ctx.Read(kCustomer, rid, row);
        if (!s.ok()) return s;
        const Schema csch = CustomerSchema();
        const uint64_t ckey =
            static_cast<uint64_t>(csch.GetLong(row, 0));
        const uint64_t c = ckey & 0xffff;

        // The customer's most recent order, via the order-by-customer
        // secondary index (ascending order id: the last hit wins).
        std::vector<RowId> orders;
        s = ctx.ScanSecondary(
            kOrder, kOrderByCustomer,
            index::Key::FromUint64(OrderCustomerKey(w, d, c, 0)), 6,
            &orders);
        if (!s.ok()) return s;
        const Schema osch = OrderSchema();
        RowId order_rid = storage::kInvalidRow;
        uint64_t o = 0;
        uint64_t ol_cnt = 0;
        for (RowId candidate : orders) {
          s = ctx.Read(kOrder, candidate, row);
          if (!s.ok()) return s;
          const uint64_t okey =
              static_cast<uint64_t>(osch.GetLong(row, 0));
          if (okey >> 24 != OrderKey(w, d, 0) >> 24) break;
          if (static_cast<uint64_t>(osch.GetLong(row, 1)) != c) break;
          order_rid = candidate;
          o = okey & 0xffffff;
          ol_cnt = static_cast<uint64_t>(osch.GetLong(row, 2));
        }
        if (order_rid == storage::kInvalidRow) {
          return Status::Ok();  // the customer has no orders yet
        }

        std::vector<RowId> lines;
        s = ctx.Scan(kOrderLine,
                     index::Key::FromUint64(OrderLineKey(w, d, o, 0)),
                     ol_cnt, &lines);
        if (!s.ok()) return s;
        for (RowId lr : lines) {
          s = ctx.Read(kOrderLine, lr, row);
          if (!s.ok()) return s;
        }
        return Status::Ok();
      });
}

Status TpccBenchmark::SelectCustomerByName(engine::TxnContext& ctx,
                                           uint64_t w, uint64_t d,
                                           uint64_t bucket, RowId* rid) {
  // Clause 2.5.2.2: fetch all customers with the last name, sorted by
  // first name, and take the one at position ceil(n/2). The bucketed
  // encoding yields exactly ceil(customers-per-district / 1000) matches.
  std::vector<RowId> matches;
  Status s = ctx.ScanSecondary(
      kCustomer, kCustomerByName,
      index::Key::FromUint64(CustomerNameKey(w, d, bucket, 0)), 8,
      &matches);
  if (!s.ok()) return s;
  const Schema csch = CustomerSchema();
  uint8_t row[160];
  std::vector<RowId> same_name;
  for (RowId candidate : matches) {
    s = ctx.Read(kCustomer, candidate, row);
    if (!s.ok()) return s;
    const uint64_t ckey = static_cast<uint64_t>(csch.GetLong(row, 0));
    const uint64_t c = ckey & 0xffff;
    if (ckey >> 16 != CustomerKey(w, d, 0) >> 16) break;
    if (LastNameBucket(c) != bucket) break;
    same_name.push_back(candidate);
  }
  if (same_name.empty()) return Status::NotFound("no such last name");
  *rid = same_name[same_name.size() / 2];
  return Status::Ok();
}

Status TpccBenchmark::RunDelivery(engine::Engine* engine, int worker,
                                  Rng* rng, uint64_t w) {
  const int64_t carrier = static_cast<int64_t>(rng->Range(1, 10));
  return ExecuteDelivery(engine, worker, w, carrier);
}

Status TpccBenchmark::ExecuteDelivery(engine::Engine* engine, int worker,
                                      uint64_t w, int64_t carrier) {
  return engine->Execute(
      worker, Request(kTxnDelivery, w), [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        const Schema nosch = NewOrderSchema();
        const Schema osch = OrderSchema();
        const Schema olsch = OrderLineSchema();
        const Schema csch = CustomerSchema();

        for (uint64_t d = 0; d < kDistrictsPerWarehouse; ++d) {
          // Oldest undelivered order of the district.
          std::vector<RowId> pending;
          Status s = ctx.Scan(kNewOrder,
                              index::Key::FromUint64(OrderKey(w, d, 0)),
                              1, &pending);
          if (!s.ok()) return s;
          if (pending.empty()) continue;
          s = ctx.Read(kNewOrder, pending[0], row);
          if (!s.ok()) continue;
          const uint64_t okey =
              static_cast<uint64_t>(nosch.GetLong(row, 0));
          // A scan from OrderKey(w, d, 0) can run past the district into
          // the next one; verify the key still belongs to (w, d).
          if (okey >> 24 != OrderKey(w, d, 0) >> 24) continue;
          const uint64_t o = okey & 0xffffff;

          s = ctx.Delete(kNewOrder, pending[0],
                         index::Key::FromUint64(okey));
          if (!s.ok()) return s;

          RowId rid;
          s = ctx.Probe(kOrder, index::Key::FromUint64(okey), &rid);
          if (!s.ok()) return s;
          s = ctx.Read(kOrder, rid, row);
          if (!s.ok()) return s;
          const uint64_t c = static_cast<uint64_t>(osch.GetLong(row, 1));
          const uint64_t ol_cnt =
              static_cast<uint64_t>(osch.GetLong(row, 2));
          s = ctx.Update(kOrder, rid, 3, &carrier);
          if (!s.ok()) return s;

          std::vector<RowId> lines;
          s = ctx.Scan(kOrderLine,
                       index::Key::FromUint64(OrderLineKey(w, d, o, 0)),
                       ol_cnt, &lines);
          if (!s.ok()) return s;
          int64_t total = 0;
          for (RowId lr : lines) {
            s = ctx.Read(kOrderLine, lr, row);
            if (!s.ok()) return s;
            total += olsch.GetLong(row, 3);
          }

          s = ctx.Probe(kCustomer,
                        index::Key::FromUint64(CustomerKey(w, d, c)),
                        &rid);
          if (!s.ok()) return s;
          s = ctx.Read(kCustomer, rid, row);
          if (!s.ok()) return s;
          const int64_t balance = csch.GetLong(row, 1) + total;
          s = ctx.Update(kCustomer, rid, 1, &balance);
          if (!s.ok()) return s;
        }
        return Status::Ok();
      });
}

Status TpccBenchmark::RunStockLevel(engine::Engine* engine, int worker,
                                    Rng* rng, uint64_t w) {
  const uint64_t d = rng->Uniform(kDistrictsPerWarehouse);
  const int64_t threshold = static_cast<int64_t>(rng->Range(10, 20));
  return ExecuteStockLevel(engine, worker, w, d, threshold);
}

Status TpccBenchmark::ExecuteStockLevel(engine::Engine* engine,
                                        int worker, uint64_t w,
                                        uint64_t d, int64_t threshold) {
  return engine->Execute(
      worker, Request(kTxnStockLevel, w), [&](engine::TxnContext& ctx) {
        uint8_t row[160];
        RowId rid;

        const Schema dsch = DistrictSchema();
        Status s = ctx.Probe(kDistrict,
                             index::Key::FromUint64(DistrictKey(w, d)),
                             &rid);
        if (!s.ok()) return s;
        s = ctx.Read(kDistrict, rid, row);
        if (!s.ok()) return s;
        const uint64_t next_o =
            static_cast<uint64_t>(dsch.GetLong(row, 2));
        const uint64_t o_low = next_o > 20 ? next_o - 20 : 0;

        // Join the last 20 orders' lines with Stock.
        std::vector<RowId> lines;
        s = ctx.Scan(kOrderLine,
                     index::Key::FromUint64(OrderLineKey(w, d, o_low, 0)),
                     200, &lines);
        if (!s.ok()) return s;

        const Schema olsch = OrderLineSchema();
        const Schema ssch = StockSchema();
        int64_t low_stock = 0;
        for (RowId lr : lines) {
          s = ctx.Read(kOrderLine, lr, row);
          if (!s.ok()) return s;
          const uint64_t item =
              static_cast<uint64_t>(olsch.GetLong(row, 1));
          s = ctx.Probe(kStock,
                        index::Key::FromUint64(StockKey(w, item)), &rid);
          if (!s.ok()) return s;
          s = ctx.Read(kStock, rid, row);
          if (!s.ok()) return s;
          if (ssch.GetLong(row, 1) < threshold) ++low_stock;
        }
        (void)low_stock;
        return Status::Ok();
      });
}

}  // namespace imoltp::core
