#include "mcsim/core.h"

#include "mcsim/machine.h"

namespace {
constexpr uint64_t kPteBaseLine = 1ULL << 54;
}  // namespace

namespace imoltp::mcsim {

namespace {
int Log2(uint32_t v) {
  int s = 0;
  while ((1u << s) < v) ++s;
  return s;
}
}  // namespace

CoreSim::CoreSim(const MachineConfig& config, MachineSim* machine,
                 int core_id)
    : l1i_(config.l1i),
      l1d_(config.l1d),
      l2_(config.l2),
      dtlb_(config.dtlb),
      stlb_(config.stlb),
      machine_(machine),
      core_id_(core_id),
      model_tlb_(config.model_tlb),
      model_prefetcher_(config.model_prefetcher),
      prefetch_degree_(config.prefetch_degree),
      page_line_shift_(Log2(config.page_bytes / config.l1d.line_bytes)),
      default_cpi_(config.cycle.base_cpi),
      cpi_floor_(config.cycle.cpi_floor),
      window_state_(0x9E3779B97F4A7C15ULL ^ (core_id + 1)) {}

void CoreSim::FetchCodeMiss(uint64_t line) {
  ++counters_.misses.l1i;
  ++counters_.per_module[module_].misses.l1i;
  if (l2_.Access(line)) return;
  ++counters_.misses.l2i;
  ++counters_.per_module[module_].misses.l2i;
  if (machine_->llc().Access(line)) return;
  ++counters_.misses.llc_i;
  ++counters_.per_module[module_].misses.llc_i;
}

void CoreSim::AccessData(uint64_t addr, uint32_t size, bool is_write) {
  const uint64_t first = addr >> 6;
  const uint64_t last = (addr + (size == 0 ? 0 : size - 1)) >> 6;
  for (uint64_t line = first; line <= last; ++line) {
    AccessDataLine(line, is_write);
  }
}

void CoreSim::AccessDataLine(uint64_t line, bool is_write) {
  ++counters_.data_accesses;
  if (model_tlb_ && !in_page_walk_) {
    const uint64_t page = line >> page_line_shift_;
    if (!dtlb_.Access(page) && !stlb_.Access(page)) {
      // Full dTLB miss: the hardware walker loads the PTE through the
      // data hierarchy. Eight 8-byte PTEs share one line.
      ++counters_.tlb_misses;
      ++counters_.per_module[module_].tlb_misses;
      in_page_walk_ = true;
      AccessDataLine(kPteBaseLine + (page >> 3), /*is_write=*/false);
      in_page_walk_ = false;
    }
  }
  if (is_write && machine_->num_cores() > 1) {
    machine_->InvalidateOthers(line, core_id_);
  }
  if (l1d_.Access(line)) return;
  ++counters_.misses.l1d;
  ++counters_.per_module[module_].misses.l1d;

  // L2 stream prefetcher: an L1D miss extending an ascending sequence
  // pulls the following lines into L2 and the LLC ahead of demand.
  if (model_prefetcher_ && !in_page_walk_) {
    if (line == last_miss_line_ + 1) {
      for (uint32_t k = 1; k <= prefetch_degree_; ++k) {
        l2_.Access(line + k);
        machine_->llc().Access(line + k);
        ++prefetches_issued_;
      }
    }
    last_miss_line_ = line;
  }

  if (l2_.Access(line)) return;
  ++counters_.misses.l2d;
  ++counters_.per_module[module_].misses.l2d;
  if (machine_->llc().Access(line)) return;
  ++counters_.misses.llc_d;
  ++counters_.per_module[module_].misses.llc_d;
}

void CoreSim::ArmSampler(const SamplerConfig& config) {
  if (config.every_cycles == 0) {
    sampler_ = nullptr;
    sampler_owned_.reset();
    return;
  }
  sampler_owned_ = std::make_unique<CoreSampler>(
      config, &machine_->config().cycle);
  sampler_owned_->Restart(counters_);
  sampler_ = sampler_owned_.get();
}

void CoreSim::Reset() {
  l1i_.Reset();
  l1d_.Reset();
  l2_.Reset();
  dtlb_.Reset();
  stlb_.Reset();
  counters_ = CoreCounters();
  mispredict_acc_ = 0.0;
  last_miss_line_ = 0;
  prefetches_issued_ = 0;
  if (sampler_ != nullptr) sampler_->Restart(counters_);
}

}  // namespace imoltp::mcsim
