#ifndef IMOLTP_CORE_TPCC_H_
#define IMOLTP_CORE_TPCC_H_

#include "core/workload.h"

namespace imoltp::core {

/// TPC-C (paper Section 5.2): a wholesale supplier with nine tables and
/// five transaction types, two of them read-only. Compared to TPC-B it
/// has longer transactions, index scans (instruction/data locality), and
/// richer operations: probes, inserts, updates, deletes, joins.
///
/// Standard mix: New-Order 45%, Payment 43%, Order-Status 4%,
/// Delivery 4%, Stock-Level 4% (the read-only pair is 8%, as the paper
/// notes).
struct TpccConfig {
  int warehouses = 8;
  int orders_per_district = 1000;  // initial orders (spec: 3000)
  int num_partitions = 1;          // must divide warehouses

  /// kInvalidArgument unless every worker gets the same non-empty
  /// warehouse range, i.e. num_partitions divides warehouses. Every
  /// tool that builds a TpccBenchmark from user input checks this.
  Status Validate() const {
    if (warehouses < 1 || num_partitions < 1 ||
        warehouses % num_partitions != 0) {
      return Status::InvalidArgument(
          "warehouses must be divisible by workers");
    }
    return Status::Ok();
  }
};

class TpccBenchmark final : public Workload {
 public:
  explicit TpccBenchmark(const TpccConfig& config);

  const char* name() const override { return "tpcc"; }
  std::vector<engine::TableDef> Tables() const override;
  Status RunTransaction(engine::Engine* engine, int worker,
                        Rng* rng) override;

  // Txn-type vocabulary for the module×type attribution matrix: the
  // five procedures of the mix, in mix order.
  int NumTransactionTypes() const override { return 5; }
  const char* TransactionTypeName(int type) const override;
  int LastTransactionType(int worker) const override;

  // Table ids.
  static constexpr int kWarehouse = 0;
  static constexpr int kDistrict = 1;
  static constexpr int kCustomer = 2;
  static constexpr int kHistory = 3;
  static constexpr int kOrder = 4;
  static constexpr int kNewOrder = 5;
  static constexpr int kOrderLine = 6;
  static constexpr int kItem = 7;
  static constexpr int kStock = 8;

  // Transaction-type ids.
  static constexpr int kTxnNewOrder = 20;
  static constexpr int kTxnPayment = 21;
  static constexpr int kTxnOrderStatus = 22;
  static constexpr int kTxnDelivery = 23;
  static constexpr int kTxnStockLevel = 24;

  // Cardinality constants (TPC-C clause 1.2, scaled).
  static constexpr uint64_t kDistrictsPerWarehouse = 10;
  static constexpr uint64_t kCustomersPerDistrict = 3000;
  static constexpr uint64_t kItems = 100000;
  static constexpr uint64_t kStockPerWarehouse = 100000;

  // Composite-key packing (ordered: warehouse in the most significant
  // bits so range partitioning by key range == partitioning by
  // warehouse).
  static uint64_t DistrictKey(uint64_t w, uint64_t d) {
    return (w << 4) | d;
  }
  static uint64_t CustomerKey(uint64_t w, uint64_t d, uint64_t c) {
    return (w << 20) | (d << 16) | c;
  }
  static uint64_t OrderKey(uint64_t w, uint64_t d, uint64_t o) {
    return (w << 28) | (d << 24) | o;
  }
  static uint64_t OrderLineKey(uint64_t w, uint64_t d, uint64_t o,
                               uint64_t l) {
    return (w << 36) | (d << 32) | (o << 8) | l;
  }
  static uint64_t StockKey(uint64_t w, uint64_t i) {
    return (w << 20) | i;
  }

  // Secondary-index keys (unique: the discriminator rides the low bits).
  // Customer-by-last-name (secondary 0 of Customer): last names are the
  // spec's 1000 syllable combinations; here bucket = c mod 1000, giving
  // exactly three customers per (district, name) as at scale factor 1.
  static uint64_t LastNameBucket(uint64_t c) { return c % 1000; }
  static uint64_t CustomerNameKey(uint64_t w, uint64_t d, uint64_t bucket,
                                  uint64_t c) {
    return (((((w << 4) | d) << 10) | bucket) << 16) | c;
  }
  // Order-by-customer (secondary 0 of Order): ascending order id in the
  // low bits, so a prefix scan's last hit is the customer's most recent
  // order.
  static uint64_t OrderCustomerKey(uint64_t w, uint64_t d, uint64_t c,
                                   uint64_t o) {
    return (((((w << 4) | d) << 12) | c) << 24) | o;
  }

  static constexpr int kCustomerByName = 0;  // secondary id on Customer
  static constexpr int kOrderByCustomer = 0;  // secondary id on Order

  /// Cross-shard fragment interface (src/dist). A distributed TPC-C
  /// transaction decomposes into parameter-explicit fragments with no
  /// cross-fragment dataflow — the home fragment never reads what a
  /// remote fragment wrote and vice versa — which is what lets a
  /// deterministic cluster run them on different nodes without 2PC
  /// (docs/distributed.md). The local Run* bodies delegate to these
  /// with everything marked local, so single-node behavior is the
  /// plain TPC-C the paper profiles.
  struct NewOrderParams {
    uint64_t d = 0;
    uint64_t c = 0;
    int ol_cnt = 0;
    uint64_t items[16] = {};
    uint64_t quantities[16] = {};
    /// Bit i set = line i is supplied by a remote warehouse: the home
    /// fragment skips its stock leg; ExecuteNewOrderRemoteStock runs
    /// it at the supplying node.
    uint16_t remote_mask = 0;
  };
  struct PaymentParams {
    uint64_t d = 0;
    uint64_t c = 0;
    uint64_t name_bucket = 0;
    bool by_name = false;
    /// Customer leg runs at another node (TPC-C's remote payment):
    /// the home fragment keeps W_YTD/D_YTD/history only.
    bool customer_remote = false;
    int64_t amount = 0;
    uint64_t history_id = 0;
  };

  /// Home fragment of New-Order at warehouse `w`: district advance,
  /// order + new-order + order-line inserts, and the stock legs of the
  /// locally supplied lines.
  Status ExecuteNewOrderHome(engine::Engine* engine, int worker,
                             uint64_t w, const NewOrderParams& p);
  /// Remote fragment of New-Order at supplying warehouse `w`: the
  /// stock legs of the lines `p.remote_mask` marks.
  Status ExecuteNewOrderRemoteStock(engine::Engine* engine, int worker,
                                    uint64_t w, const NewOrderParams& p);
  /// Home fragment of Payment at warehouse `w`: W_YTD, D_YTD, the
  /// history append, and — unless `p.customer_remote` — the customer
  /// leg.
  Status ExecutePaymentHome(engine::Engine* engine, int worker,
                            uint64_t w, const PaymentParams& p);
  /// Customer fragment of a remote Payment at the customer's
  /// warehouse `w`: balance and ytd-paid update only.
  Status ExecutePaymentCustomer(engine::Engine* engine, int worker,
                                uint64_t w, const PaymentParams& p);
  /// The read-only / single-warehouse procedures, parameter-explicit.
  Status ExecuteOrderStatus(engine::Engine* engine, int worker,
                            uint64_t w, uint64_t d, uint64_t c,
                            uint64_t name_bucket, bool by_name);
  Status ExecuteDelivery(engine::Engine* engine, int worker, uint64_t w,
                         int64_t carrier);
  Status ExecuteStockLevel(engine::Engine* engine, int worker,
                           uint64_t w, uint64_t d, int64_t threshold);

  /// Draws the next history primary key for `worker` (same encoding the
  /// local Payment path uses); cluster drivers call this at generation
  /// time so the key travels with the transaction's parameters.
  uint64_t NextHistoryId(int worker) {
    return (static_cast<uint64_t>(worker) << 40) | history_counter_++;
  }

  /// Counters for mix accounting (testing/reporting hook).
  struct MixCounts {
    uint64_t new_order = 0;
    uint64_t payment = 0;
    uint64_t order_status = 0;
    uint64_t delivery = 0;
    uint64_t stock_level = 0;
  };
  const MixCounts& mix_counts() const { return mix_; }

 private:
  Status RunNewOrder(engine::Engine* engine, int worker, Rng* rng,
                     uint64_t w);
  Status RunPayment(engine::Engine* engine, int worker, Rng* rng,
                    uint64_t w);
  Status RunOrderStatus(engine::Engine* engine, int worker, Rng* rng,
                        uint64_t w);
  Status RunDelivery(engine::Engine* engine, int worker, Rng* rng,
                     uint64_t w);
  Status RunStockLevel(engine::Engine* engine, int worker, Rng* rng,
                       uint64_t w);
  Status SelectCustomerByName(engine::TxnContext& ctx, uint64_t w,
                              uint64_t d, uint64_t bucket,
                              storage::RowId* rid);

  engine::TxnRequest Request(int type, uint64_t w) const;
  engine::TxnRequest FragmentRequest(int type, uint64_t w,
                                     int statements) const;

  TpccConfig config_;
  uint64_t history_counter_ = 0;
  MixCounts mix_;
  std::vector<int> last_type_;  // per worker
};

}  // namespace imoltp::core

#endif  // IMOLTP_CORE_TPCC_H_
