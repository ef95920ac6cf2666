#include "dist/node.h"

#include "fault/fingerprint.h"

namespace imoltp::dist {

Node::Node(const NodeConfig& config) : config_(config) {
  core::TpccConfig tc;
  tc.warehouses = config_.warehouses;
  tc.orders_per_district = config_.orders_per_district;
  tc.num_partitions = config_.workers;
  bench_ = std::make_unique<core::TpccBenchmark>(tc);
}

Node::~Node() = default;

Status Node::Create() {
  mcsim::MachineConfig mc = config_.machine_config;
  mc.num_cores = config_.workers;
  machine_ = std::make_unique<mcsim::MachineSim>(mc);

  engine::EngineOptions opts = config_.engine_options;
  opts.num_partitions = config_.workers;
  engine_ = engine::CreateEngine(config_.engine_kind, machine_.get(), opts);

  const Status s = engine_->CreateDatabase(bench_->Tables());
  if (!s.ok()) return s;
  alive_ = true;
  return Status::Ok();
}

void Node::BeginWindow() {
  if (!alive_) return;
  profiler_ = std::make_unique<mcsim::Profiler>(machine_.get());
  std::vector<int> cores(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) cores[static_cast<size_t>(i)] = i;
  profiler_->BeginWindow(cores);
  window_open_ = true;
  has_window_ = false;
}

void Node::EndWindow() {
  if (!window_open_) return;
  window_ = profiler_->EndWindow();
  profiler_.reset();
  window_open_ = false;
  has_window_ = true;
}

void Node::Kill(uint64_t round) {
  if (!alive_) return;
  // Close an open measurement window first: the partial profile of a
  // node that died mid-window is still a valid (and interesting)
  // report, and the profiler must not outlive the machine.
  EndWindow();
  saved_log_ = engine_->StableLog();
  engine_.reset();
  killed_machine_refs_ = SimulatedRefs();
  machine_.reset();
  alive_ = false;
  ever_died_ = true;
  death_round_ = round;
}

uint64_t Node::SimulatedRefs() const {
  uint64_t refs = killed_machine_refs_;
  if (machine_ != nullptr) {
    const mcsim::CoreCounters c = machine_->TotalCounters();
    refs += c.code_line_fetches + c.data_accesses;
  }
  return refs;
}

Status Node::Recover() {
  if (alive_) return Status::Ok();
  Status s = Create();
  if (!s.ok()) return s;
  s = engine_->Replay(saved_log_);
  // The live engine's log is the durable log from here on; a failed
  // replay keeps the death-time copy.
  if (s.ok()) std::vector<txn::LogRecord>().swap(saved_log_);
  return s;
}

uint64_t Node::FnvDurableLog(uint64_t h) const {
  if (engine_ != nullptr) return fault::FnvStableLog(h, *engine_);
  return fault::FnvLog(h, saved_log_);
}

}  // namespace imoltp::dist
