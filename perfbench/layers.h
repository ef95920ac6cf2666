// Host-side layer tracing for the benchmark program. Everything here
// lives outside the program: spans are recorded around calls into the
// libraries' public entry points (TableDef function pointers,
// Workload::RunTransaction, Engine::Execute, the TxnContext verbs), by
// wrapping those entry points — the libraries themselves are unchanged
// and run exactly the simulated work they run untraced.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/workload.h"
#include "engine/engine.h"
#include "mcsim/trace_sink.h"

namespace perfbench {

/// Monotonic host nanoseconds (steady_clock).
uint64_t NowNs();

/// The fixed span vocabulary: one name per boundary the benchmark
/// wraps. The prefix before the first '.' is the layer (module) name.
enum SpanName : uint8_t {
  kSpanCreate,        // core.create      ExperimentRunner/Cluster::Create
  kSpanRun,           // core.run         ExperimentRunner/Cluster::Run
  kSpanWarmup,        // core.warmup      Run up to hooks.post_warmup
  kSpanMeasure,       // core.measure     Run after hooks.post_warmup
  kSpanRowGen,        // core.rowgen      TableDef::generator
  kSpanKeyOf,         // core.keyof       TableDef::key_of
  kSpanTxn,           // core.txn         Workload::RunTransaction
  kSpanExecute,       // engine.execute   Engine::Execute
  kSpanBody,          // core.txn_body    the stored-procedure body
  kSpanProbe,         // engine.op.probe  TxnContext verbs ...
  kSpanRead,
  kSpanUpdate,
  kSpanInsert,
  kSpanDelete,
  kSpanScan,
  kSpanScanSecondary,
  kSpanReportJson,    // obs.report_json  report serialisation
  kNumSpanNames,
};

const char* SpanNameString(SpanName name);

/// First and last verb span, for iterating the engine.op.* family.
inline constexpr SpanName kFirstOpSpan = kSpanProbe;
inline constexpr SpanName kLastOpSpan = kSpanScanSecondary;

/// Per-name aggregate over every closed span (stored or not).
struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time child spans cover
};

/// In-memory span log. Each host thread records into its own lane, so
/// workers never share mutable state while a run is in flight; read
/// the results only after every recording thread has finished.
///
/// Every span closes into the per-name totals; every phase span
/// (create, run, warm-up, measure, report) and the first `max_stored`
/// other spans per lane are also kept individually (name, start, end,
/// parent, txn id) for WriteChromeTrace.
class SpanLog {
 public:
  explicit SpanLog(size_t max_stored_per_lane);
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// The log the function-pointer trampolines record into (null = off).
  static SpanLog* active();
  static void set_active(SpanLog* log);

  /// Opens a span on the calling thread, nested in its innermost open
  /// span. A root span on a thread other than the adopter's is parented
  /// to the adopting span (see Adopt) and counted as its child time.
  void Begin(SpanName name);
  /// Closes the calling thread's innermost open span; returns its
  /// duration in nanoseconds.
  uint64_t End();
  /// Starts a new transaction on the calling thread: spans opened until
  /// the next call carry its id.
  void BeginTxn();
  /// Makes the calling thread's innermost open span the parent of root
  /// spans opened on other threads (worker threads of a phase), until
  /// that span closes.
  void Adopt();

  /// Host duration of one transaction of `type` (per-type percentiles).
  void RecordTxn(int type, uint64_t ns);

  std::array<SpanTotals, kNumSpanNames> Totals() const;
  /// Transaction durations of `type` (-1 = all types), nanoseconds.
  std::vector<uint64_t> TxnDurations(int type) const;
  uint64_t stored() const;
  uint64_t dropped() const;

  /// Writes the stored spans as a Chrome trace-event JSON file
  /// (viewable in Perfetto), with per-layer self time in its metadata.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint64_t txn = 0;
    int64_t parent = -1;  // global span id, -1 = root
    uint8_t name = 0;
  };
  struct Open {
    int64_t id = -1;  // global id if stored, else -1
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
    uint8_t name = 0;
    bool adopter = false;
  };
  struct Lane {
    int index = 0;
    std::vector<Record> records;
    std::vector<Open> stack;
    uint64_t txn = 0;
    uint64_t dropped = 0;
    std::array<SpanTotals, kNumSpanNames> totals{};
    std::vector<std::pair<int, uint64_t>> txns;  // (type, ns)
  };

  Lane* lane();
  static int64_t GlobalId(int lane, size_t index) {
    return (static_cast<int64_t>(lane) << 40) | static_cast<int64_t>(index);
  }

  const size_t max_stored_;
  const uint64_t origin_ns_;
  std::mutex lanes_mu_;  // guards lanes_ (growth only)
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<uint64_t> next_txn_{1};
  // The adopting span: its global id (-1 = none) and the child time
  // other threads' root spans add to it while it is open.
  std::atomic<int64_t> adopter_id_{-1};
  std::atomic<const Lane*> adopter_lane_{nullptr};
  std::atomic<uint64_t> adopted_child_ns_{0};
};

/// RAII span in `log`, on the calling thread's lane.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanName name) : log_(log) { log_->Begin(name); }
  ~ScopedSpan() { log_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
};

/// Forwards to `inner` and records core.txn / engine.execute /
/// core.txn_body / engine.op.* spans around every call, plus
/// core.rowgen / core.keyof around the table definitions' function
/// pointers. Simulated behaviour is untouched: every call reaches the
/// inner workload and engine with the same arguments in the same order.
class TimedWorkload final : public imoltp::core::Workload {
 public:
  TimedWorkload(imoltp::core::Workload* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  const char* name() const override { return inner_->name(); }
  std::vector<imoltp::engine::TableDef> Tables() const override;
  imoltp::Status RunTransaction(imoltp::engine::Engine* engine, int worker,
                                imoltp::Rng* rng) override;
  int NumTransactionTypes() const override {
    return inner_->NumTransactionTypes();
  }
  const char* TransactionTypeName(int type) const override {
    return inner_->TransactionTypeName(type);
  }
  int LastTransactionType(int worker) const override {
    return inner_->LastTransactionType(worker);
  }

 private:
  imoltp::core::Workload* inner_;
  SpanLog* log_;
};

/// Counts CoreSim verb calls per core (exact event counts). Each core's
/// lane is written only by the thread driving that core.
class EventCounter final : public imoltp::mcsim::TraceSink {
 public:
  struct alignas(64) Counts {
    uint64_t exec_region = 0;
    uint64_t load = 0;
    uint64_t store = 0;
    uint64_t retire = 0;
  };

  explicit EventCounter(int cores) : lanes_(static_cast<size_t>(cores)) {}

  Counts Sum() const;

  void OnExecuteRegion(int core, const imoltp::mcsim::CodeRegion&,
                       uint64_t) override {
    ++lanes_[static_cast<size_t>(core)].exec_region;
  }
  void OnRead(int core, uint64_t, uint32_t) override {
    ++lanes_[static_cast<size_t>(core)].load;
  }
  void OnWrite(int core, uint64_t, uint32_t) override {
    ++lanes_[static_cast<size_t>(core)].store;
  }
  void OnRetire(int core, uint64_t) override {
    ++lanes_[static_cast<size_t>(core)].retire;
  }
  void OnMispredict(int, uint64_t) override {}
  void OnBeginTransaction(int) override {}
  void OnSetModule(int, imoltp::mcsim::ModuleId) override {}
  void OnWindowMark(bool) override {}

 private:
  std::vector<Counts> lanes_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
