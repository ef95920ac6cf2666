#include "trace/replay.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "mcsim/machine.h"
#include "trace/reader.h"

namespace imoltp::trace {

namespace {

Status ReplayEvents(TraceReader* reader,
                    const mcsim::MachineConfig& config,
                    ReplayResult* result) {
  const TraceMeta& meta = reader->meta();
  mcsim::MachineConfig mc = config;
  mc.num_cores = meta.num_workers;
  mcsim::MachineSim machine(mc);
  // Mirror the live machine's registry in registration order — the
  // reader's table grows as in-stream definitions are decoded (engines
  // register compiled-transaction modules mid-run).
  size_t modules_registered = 0;
  auto sync_modules = [&]() {
    const std::vector<mcsim::ModuleInfo>& mods = reader->modules();
    while (modules_registered < mods.size()) {
      const mcsim::ModuleInfo& m = mods[modules_registered];
      machine.modules().Register(m.name, m.inside_engine);
      ++modules_registered;
    }
  };
  sync_modules();
  mcsim::Profiler profiler(&machine);
  std::vector<int> all_cores;
  for (int c = 0; c < machine.num_cores(); ++c) all_cores.push_back(c);

  TraceEvent ev;
  bool done = false;
  while (true) {
    Status s = reader->Next(&ev, &done);
    if (!s.ok()) return s;
    if (done) break;
    sync_modules();
    mcsim::CoreSim& core = machine.core(ev.core);
    switch (ev.op) {
      case kOpSetModule:
        core.SetModule(ev.module);
        break;
      case kOpExecRegion:
        core.ExecuteRegionAt(reader->regions()[ev.region],
                             ev.start_line);
        break;
      case kOpLoad:
        core.Read(ev.addr, ev.size);
        break;
      case kOpStore:
        core.Write(ev.addr, ev.size);
        break;
      case kOpRetire:
        core.Retire(ev.n);
        break;
      case kOpMispredict:
        core.Mispredict(ev.n);
        break;
      case kOpTxnBegin:
        core.BeginTransaction();
        break;
      case kOpWindowBegin:
        if (profiler.window_open()) {
          return Status::InvalidArgument(
              "corrupted trace: window begins inside an open window");
        }
        profiler.BeginWindow(all_cores);
        break;
      case kOpWindowEnd:
        if (!profiler.window_open()) {
          return Status::InvalidArgument(
              "corrupted trace: window end without a begin");
        }
        result->window = profiler.EndWindow();
        result->has_window = true;
        ++result->windows;
        break;
      default:
        return Status::InvalidArgument(
            "corrupted trace: unexpected opcode in replay");
    }
    ++result->events;
  }
  if (profiler.window_open()) {
    return Status::InvalidArgument(
        "corrupted trace: measurement window never closed");
  }

  result->meta = meta;
  result->counters.reserve(static_cast<size_t>(machine.num_cores()));
  for (int c = 0; c < machine.num_cores(); ++c) {
    result->counters.push_back(machine.core(c).counters());
    result->prefetches.push_back(machine.core(c).prefetches_issued());
  }
  return Status::Ok();
}

}  // namespace

Status ReplayTrace(const std::string& path,
                   const mcsim::MachineConfig& config,
                   ReplayResult* result) {
  TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  return ReplayEvents(&reader, config, result);
}

Status ReplayTraceRecorded(const std::string& path,
                           ReplayResult* result) {
  TraceReader reader;
  Status s = reader.Open(path);
  if (!s.ok()) return s;
  return ReplayEvents(&reader, reader.meta().recorded_config, result);
}

namespace {

/// "32KB" / "20MB" / "1GB" / bare bytes. Returns 0 on malformed input.
uint64_t ParseByteSize(const std::string& s) {
  if (s.empty()) return 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || v <= 0) return 0;
  if (strcasecmp(end, "KB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 10));
  }
  if (strcasecmp(end, "MB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 20));
  }
  if (strcasecmp(end, "GB") == 0) {
    return static_cast<uint64_t>(v * (1ULL << 30));
  }
  if (*end == '\0') return static_cast<uint64_t>(v);
  return 0;
}

Status BadSpec(const std::string& item) {
  return Status::InvalidArgument("bad config spec item: " + item);
}

}  // namespace

Status ApplyConfigSpec(const std::string& spec,
                       mcsim::MachineConfig* config) {
  if (spec.empty() || spec == "recorded") return Status::Ok();
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(start, comma - start);
    start = comma + 1;
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) return BadSpec(item);
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);

    auto as_size = [&](uint64_t* dst) -> Status {
      const uint64_t bytes = ParseByteSize(val);
      if (bytes == 0) return BadSpec(item);
      *dst = bytes;
      return Status::Ok();
    };
    auto as_u32 = [&](uint32_t* dst) -> Status {
      char* end = nullptr;
      const long n = std::strtol(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0' || n <= 0 ||
          n > (1 << 20)) {
        return BadSpec(item);
      }
      *dst = static_cast<uint32_t>(n);
      return Status::Ok();
    };
    auto as_assoc = [&](uint32_t* dst) -> Status {
      uint32_t ways = 0;
      Status st = as_u32(&ways);
      if (st.ok() && ways > mcsim::Cache::kMaxAssociativity) {
        st = BadSpec(item);
      }
      if (st.ok()) *dst = ways;
      return st;
    };
    auto as_double = [&](double* dst) -> Status {
      char* end = nullptr;
      const double d = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || d < 0) {
        return BadSpec(item);
      }
      *dst = d;
      return Status::Ok();
    };
    auto as_onoff = [&](bool* dst) -> Status {
      if (val == "on" || val == "1" || val == "true") {
        *dst = true;
      } else if (val == "off" || val == "0" || val == "false") {
        *dst = false;
      } else {
        return BadSpec(item);
      }
      return Status::Ok();
    };

    Status s = Status::Ok();
    if (key == "l1i") {
      s = as_size(&config->l1i.size_bytes);
    } else if (key == "l1d") {
      s = as_size(&config->l1d.size_bytes);
    } else if (key == "l2") {
      s = as_size(&config->l2.size_bytes);
    } else if (key == "llc") {
      s = as_size(&config->llc.size_bytes);
    } else if (key == "l2_assoc") {
      s = as_assoc(&config->l2.associativity);
    } else if (key == "llc_assoc") {
      s = as_assoc(&config->llc.associativity);
    } else if (key == "line") {
      uint32_t line = 0;
      s = as_u32(&line);
      if (s.ok() && (line < 16 || (line & (line - 1)) != 0)) {
        s = BadSpec(item);
      }
      if (s.ok()) {
        config->l1i.line_bytes = config->l1d.line_bytes = line;
        config->l2.line_bytes = config->llc.line_bytes = line;
      }
    } else if (key == "pf") {
      s = as_onoff(&config->model_prefetcher);
    } else if (key == "pfdeg") {
      s = as_u32(&config->prefetch_degree);
    } else if (key == "tlb") {
      s = as_onoff(&config->model_tlb);
    } else if (key == "base_cpi") {
      s = as_double(&config->cycle.base_cpi);
    } else if (key == "cpi_floor") {
      s = as_double(&config->cycle.cpi_floor);
    } else if (key == "clock") {
      s = as_double(&config->clock_ghz);
    } else {
      return Status::InvalidArgument("unknown config spec key: " + key);
    }
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

void RunSweep(const std::string& path, std::vector<SweepCell>* cells,
              int threads) {
  if (cells->empty()) return;
  if (threads < 1) threads = 1;
  if (threads > static_cast<int>(cells->size())) {
    threads = static_cast<int>(cells->size());
  }
  // Load the file once; every cell's reader decodes the same buffer.
  std::shared_ptr<const std::string> data;
  const Status load = LoadTraceFile(path, &data);
  if (!load.ok()) {
    for (SweepCell& cell : *cells) cell.status = load;
    return;
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    while (true) {
      const size_t i = next.fetch_add(1);
      if (i >= cells->size()) return;
      SweepCell& cell = (*cells)[i];
      TraceReader reader;
      cell.status = reader.OpenBuffer(data);
      if (cell.status.ok()) {
        cell.status = ReplayEvents(&reader, cell.config, &cell.result);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

bool CountersIdentical(const mcsim::CoreCounters& a,
                       const mcsim::CoreCounters& b) {
  auto modules_equal = [](const mcsim::ModuleCounters& x,
                          const mcsim::ModuleCounters& y) {
    return x.instructions == y.instructions &&
           x.mispredictions == y.mispredictions &&
           x.tlb_misses == y.tlb_misses &&
           std::memcmp(&x.base_cycles, &y.base_cycles,
                       sizeof(x.base_cycles)) == 0 &&
           std::memcmp(&x.misses, &y.misses, sizeof(x.misses)) == 0;
  };
  if (a.instructions != b.instructions ||
      a.mispredictions != b.mispredictions ||
      a.transactions != b.transactions ||
      a.code_line_fetches != b.code_line_fetches ||
      a.data_accesses != b.data_accesses ||
      a.tlb_misses != b.tlb_misses ||
      std::memcmp(&a.base_cycles, &b.base_cycles,
                  sizeof(a.base_cycles)) != 0 ||
      std::memcmp(&a.misses, &b.misses, sizeof(a.misses)) != 0) {
    return false;
  }
  for (int m = 0; m < mcsim::kMaxModules; ++m) {
    if (!modules_equal(a.per_module[m], b.per_module[m])) return false;
  }
  return true;
}

}  // namespace imoltp::trace
