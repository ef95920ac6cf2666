#include "layers.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

using imoltp::Status;
namespace engine = imoltp::engine;
namespace index = imoltp::index;
namespace storage = imoltp::storage;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* SpanNameString(SpanName name) {
  switch (name) {
    case kSpanCreate: return "core.create";
    case kSpanRun: return "core.run";
    case kSpanWarmup: return "core.warmup";
    case kSpanMeasure: return "core.measure";
    case kSpanRowGen: return "core.rowgen";
    case kSpanKeyOf: return "core.keyof";
    case kSpanTxn: return "core.txn";
    case kSpanExecute: return "engine.execute";
    case kSpanBody: return "core.txn_body";
    case kSpanProbe: return "engine.op.probe";
    case kSpanRead: return "engine.op.read";
    case kSpanUpdate: return "engine.op.update";
    case kSpanInsert: return "engine.op.insert";
    case kSpanDelete: return "engine.op.delete";
    case kSpanScan: return "engine.op.scan";
    case kSpanScanSecondary: return "engine.op.scan_secondary";
    case kSpanReportJson: return "obs.report_json";
    case kNumSpanNames: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

namespace {

std::atomic<SpanLog*> g_active_log{nullptr};

// The calling thread's lane in the process's single live SpanLog.
thread_local void* tl_lane = nullptr;
thread_local const SpanLog* tl_lane_owner = nullptr;

}  // namespace

SpanLog::SpanLog(size_t max_stored_per_lane)
    : max_stored_(max_stored_per_lane), origin_ns_(NowNs()) {}

SpanLog::~SpanLog() {
  if (active() == this) set_active(nullptr);
}

SpanLog* SpanLog::active() {
  return g_active_log.load(std::memory_order_acquire);
}

void SpanLog::set_active(SpanLog* log) {
  g_active_log.store(log, std::memory_order_release);
}

SpanLog::Lane* SpanLog::lane() {
  if (tl_lane_owner != this || tl_lane == nullptr) {
    std::lock_guard<std::mutex> guard(lanes_mu_);
    lanes_.push_back(std::make_unique<Lane>());
    lanes_.back()->index = static_cast<int>(lanes_.size() - 1);
    tl_lane = lanes_.back().get();
    tl_lane_owner = this;
  }
  return static_cast<Lane*>(tl_lane);
}

void SpanLog::Begin(SpanName name) {
  Lane* l = lane();
  Open open;
  open.name = name;
  int64_t parent = -1;
  if (!l->stack.empty()) {
    parent = l->stack.back().id;
  } else if (const Lane* adopter = adopter_lane_.load(std::memory_order_acquire);
             adopter != nullptr && adopter != l) {
    parent = adopter_id_.load(std::memory_order_acquire);
  }
  // Phase and report spans are few and carry the tree's structure, so
  // the cap (which populate's row/key spans alone would exhaust) only
  // applies to the per-call spans.
  const bool structural = name <= kSpanMeasure || name == kSpanReportJson;
  if (structural || l->records.size() < max_stored_) {
    open.id = GlobalId(l->index, l->records.size());
    Record rec;
    rec.txn = l->txn;
    rec.parent = parent;
    rec.name = name;
    l->records.push_back(rec);
  } else {
    ++l->dropped;
  }
  open.start_ns = NowNs();
  l->stack.push_back(open);
}

uint64_t SpanLog::End() {
  const uint64_t end = NowNs();
  Lane* l = lane();
  if (l->stack.empty()) return 0;
  const Open open = l->stack.back();
  l->stack.pop_back();
  const uint64_t dur = end - open.start_ns;
  uint64_t child = open.child_ns;
  if (open.adopter) {
    child += adopted_child_ns_.load(std::memory_order_acquire);
    adopter_lane_.store(nullptr, std::memory_order_release);
    adopter_id_.store(-1, std::memory_order_release);
  }
  SpanTotals& t = l->totals[open.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > child ? dur - child : 0;
  if (open.id >= 0) {
    Record& rec = l->records[static_cast<size_t>(open.id & ((1LL << 40) - 1))];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
  }
  if (!l->stack.empty()) {
    l->stack.back().child_ns += dur;
  } else if (const Lane* adopter = adopter_lane_.load(std::memory_order_acquire);
             adopter != nullptr && adopter != l) {
    adopted_child_ns_.fetch_add(dur, std::memory_order_acq_rel);
  }
  return dur;
}

void SpanLog::BeginTxn() {
  lane()->txn = next_txn_.fetch_add(1, std::memory_order_relaxed);
}

void SpanLog::Adopt() {
  Lane* l = lane();
  if (l->stack.empty()) return;
  l->stack.back().adopter = true;
  adopted_child_ns_.store(0, std::memory_order_release);
  adopter_id_.store(l->stack.back().id, std::memory_order_release);
  adopter_lane_.store(l, std::memory_order_release);
}

void SpanLog::RecordTxn(int type, uint64_t ns) {
  lane()->txns.emplace_back(type, ns);
}

std::array<SpanTotals, kNumSpanNames> SpanLog::Totals() const {
  std::array<SpanTotals, kNumSpanNames> out{};
  for (const auto& l : lanes_) {
    for (int n = 0; n < kNumSpanNames; ++n) {
      out[n].count += l->totals[n].count;
      out[n].total_ns += l->totals[n].total_ns;
      out[n].self_ns += l->totals[n].self_ns;
    }
  }
  return out;
}

std::vector<uint64_t> SpanLog::TxnDurations(int type) const {
  std::vector<uint64_t> out;
  for (const auto& l : lanes_) {
    for (const auto& [t, ns] : l->txns) {
      if (type < 0 || t == type) out.push_back(ns);
    }
  }
  return out;
}

uint64_t SpanLog::stored() const {
  uint64_t n = 0;
  for (const auto& l : lanes_) n += l->records.size();
  return n;
}

uint64_t SpanLog::dropped() const {
  uint64_t n = 0;
  for (const auto& l : lanes_) n += l->dropped;
  return n;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Self time per layer (the span-name prefix before the first '.').
  std::map<std::string, uint64_t> layer_self;
  const auto totals = Totals();
  for (int n = 0; n < kNumSpanNames; ++n) {
    std::string layer = SpanNameString(static_cast<SpanName>(n));
    layer = layer.substr(0, layer.find('.'));
    layer_self[layer] += totals[n].self_ns;
  }
  std::fprintf(f, "{\"otherData\":{\"stored_spans\":%llu,"
               "\"dropped_spans\":%llu,\"layer_self_s\":{",
               static_cast<unsigned long long>(stored()),
               static_cast<unsigned long long>(dropped()));
  bool first = true;
  for (const auto& [layer, ns] : layer_self) {
    std::fprintf(f, "%s\"%s\":%.9f", first ? "" : ",", layer.c_str(),
                 static_cast<double>(ns) * 1e-9);
    first = false;
  }
  std::fprintf(f, "},\"span_self_s\":{");
  for (int n = 0; n < kNumSpanNames; ++n) {
    std::fprintf(f, "%s\"%s\":%.9f", n == 0 ? "" : ",",
                 SpanNameString(static_cast<SpanName>(n)),
                 static_cast<double>(totals[n].self_ns) * 1e-9);
  }
  std::fprintf(f, "}},\n\"traceEvents\":[\n");
  first = true;
  for (const auto& l : lanes_) {
    for (size_t i = 0; i < l->records.size(); ++i) {
      const Record& r = l->records[i];
      if (r.end_ns == 0) continue;  // never closed
      std::fprintf(
          f,
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
          "\"parent\":%lld,\"txn\":%llu}}",
          first ? "" : ",\n", SpanNameString(static_cast<SpanName>(r.name)),
          l->index, static_cast<double>(r.start_ns - origin_ns_) * 1e-3,
          static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
          static_cast<long long>(GlobalId(l->index, i)),
          static_cast<long long>(r.parent),
          static_cast<unsigned long long>(r.txn));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Wrapped TableDef function pointers
// ---------------------------------------------------------------------------

namespace {

// TableDef carries plain function pointers, so each wrapped table gets
// its own trampoline instantiation reading its original from a slot.
constexpr size_t kMaxTables = 16;
storage::RowGenerator g_generators[kMaxTables];
engine::KeyOfRow g_key_ofs[kMaxTables];

template <size_t I>
void GeneratorTrampoline(const storage::Schema& schema, storage::RowId row,
                         uint64_t seed, uint8_t* out) {
  SpanLog* log = SpanLog::active();
  if (log == nullptr) return g_generators[I](schema, row, seed, out);
  ScopedSpan span(log, kSpanRowGen);
  g_generators[I](schema, row, seed, out);
}

template <size_t I>
index::Key KeyOfTrampoline(const storage::Schema& schema, storage::RowId row,
                           uint64_t seed) {
  SpanLog* log = SpanLog::active();
  if (log == nullptr) return g_key_ofs[I](schema, row, seed);
  ScopedSpan span(log, kSpanKeyOf);
  return g_key_ofs[I](schema, row, seed);
}

template <size_t... I>
constexpr std::array<storage::RowGenerator, kMaxTables> GeneratorTable(
    std::index_sequence<I...>) {
  return {&GeneratorTrampoline<I>...};
}

template <size_t... I>
constexpr std::array<engine::KeyOfRow, kMaxTables> KeyOfTable(
    std::index_sequence<I...>) {
  return {&KeyOfTrampoline<I>...};
}

constexpr auto kGeneratorTrampolines =
    GeneratorTable(std::make_index_sequence<kMaxTables>());
constexpr auto kKeyOfTrampolines =
    KeyOfTable(std::make_index_sequence<kMaxTables>());

// ---------------------------------------------------------------------------
// Wrapped engine and transaction context
// ---------------------------------------------------------------------------

class TimedContext final : public engine::TxnContext {
 public:
  TimedContext(engine::TxnContext* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  Status Probe(int table, const index::Key& key,
               storage::RowId* row) override {
    ScopedSpan span(log_, kSpanProbe);
    return inner_->Probe(table, key, row);
  }
  Status Read(int table, storage::RowId row, uint8_t* out) override {
    ScopedSpan span(log_, kSpanRead);
    return inner_->Read(table, row, out);
  }
  Status Update(int table, storage::RowId row, uint32_t column,
                const void* value) override {
    ScopedSpan span(log_, kSpanUpdate);
    return inner_->Update(table, row, column, value);
  }
  Status Insert(int table, const uint8_t* row, const index::Key& key,
                storage::RowId* out_row) override {
    ScopedSpan span(log_, kSpanInsert);
    return inner_->Insert(table, row, key, out_row);
  }
  Status Delete(int table, storage::RowId row,
                const index::Key& key) override {
    ScopedSpan span(log_, kSpanDelete);
    return inner_->Delete(table, row, key);
  }
  Status Scan(int table, const index::Key& from, uint64_t limit,
              std::vector<storage::RowId>* rows) override {
    ScopedSpan span(log_, kSpanScan);
    return inner_->Scan(table, from, limit, rows);
  }
  Status ScanSecondary(int table, int secondary, const index::Key& from,
                       uint64_t limit,
                       std::vector<storage::RowId>* rows) override {
    ScopedSpan span(log_, kSpanScanSecondary);
    return inner_->ScanSecondary(table, secondary, from, limit, rows);
  }
  imoltp::mcsim::CoreSim* core() override { return inner_->core(); }

 private:
  engine::TxnContext* inner_;
  SpanLog* log_;
};

class TimedEngine final : public engine::Engine {
 public:
  TimedEngine(engine::Engine* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  engine::EngineKind kind() const override { return inner_->kind(); }
  Status CreateDatabase(const std::vector<engine::TableDef>& defs) override {
    return inner_->CreateDatabase(defs);
  }
  Status Execute(
      int worker, const engine::TxnRequest& request,
      const std::function<Status(engine::TxnContext&)>& body) override {
    ScopedSpan span(log_, kSpanExecute);
    return inner_->Execute(
        worker, request, [&](engine::TxnContext& ctx) -> Status {
          TimedContext timed(&ctx, log_);
          ScopedSpan body_span(log_, kSpanBody);
          return body(timed);
        });
  }
  imoltp::mcsim::MachineSim* machine() override { return inner_->machine(); }
  imoltp::obs::SpanCollector* span_collector() override {
    return inner_->span_collector();
  }
  std::vector<imoltp::txn::LogRecord> StableLog() const override {
    return inner_->StableLog();
  }
  std::vector<imoltp::txn::LogRecord> FlushedLog() const override {
    return inner_->FlushedLog();
  }
  Status Replay(const std::vector<imoltp::txn::LogRecord>& log) override {
    return inner_->Replay(log);
  }
  void CheckpointTick(int worker) override { inner_->CheckpointTick(worker); }
  Status Recover(const std::vector<imoltp::txn::CheckpointImage>& device,
                 const std::vector<imoltp::txn::LogRecord>& log,
                 uint64_t log_truncation_lsn,
                 imoltp::txn::RecoveryStats* stats) override {
    return inner_->Recover(device, log, log_truncation_lsn, stats);
  }
  const imoltp::txn::CheckpointManager* checkpoints() const override {
    return inner_->checkpoints();
  }
  uint64_t LogTruncationLsn() const override {
    return inner_->LogTruncationLsn();
  }
  uint64_t AppendedLogRecords() const override {
    return inner_->AppendedLogRecords();
  }

 private:
  engine::Engine* inner_;
  SpanLog* log_;
};

}  // namespace

std::vector<engine::TableDef> TimedWorkload::Tables() const {
  std::vector<engine::TableDef> defs = inner_->Tables();
  for (size_t i = 0; i < defs.size() && i < kMaxTables; ++i) {
    // A null generator means DefaultRowGenerator to both storage paths,
    // so wrapping it explicitly changes nothing. A null key_of selects
    // the engine's internal default, which stays unwrapped.
    g_generators[i] = defs[i].generator != nullptr
                          ? defs[i].generator
                          : storage::DefaultRowGenerator;
    defs[i].generator = kGeneratorTrampolines[i];
    if (defs[i].key_of != nullptr) {
      g_key_ofs[i] = defs[i].key_of;
      defs[i].key_of = kKeyOfTrampolines[i];
    }
  }
  return defs;
}

Status TimedWorkload::RunTransaction(engine::Engine* engine, int worker,
                                     imoltp::Rng* rng) {
  TimedEngine timed(engine, log_);
  log_->BeginTxn();
  log_->Begin(kSpanTxn);
  const Status s = inner_->RunTransaction(&timed, worker, rng);
  const uint64_t ns = log_->End();
  log_->RecordTxn(inner_->LastTransactionType(worker), ns);
  return s;
}

EventCounter::Counts EventCounter::Sum() const {
  Counts sum;
  for (const Counts& c : lanes_) {
    sum.exec_region += c.exec_region;
    sum.load += c.load;
    sum.store += c.store;
    sum.retire += c.retire;
  }
  return sum;
}

}  // namespace perfbench
