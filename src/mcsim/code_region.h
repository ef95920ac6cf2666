#ifndef IMOLTP_MCSIM_CODE_REGION_H_
#define IMOLTP_MCSIM_CODE_REGION_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "mcsim/counters.h"

namespace imoltp::mcsim {

/// First line address of the synthetic code space: byte address 2^46,
/// 0x4000'0000'0000. Heap pointers of a 48-bit user address space shift
/// down to lines of about 1.3-2 x 2^40, *above* this base; code and data
/// lines are disjoint only because no host mapping lands within
/// kMaxCodeLines lines of 0x4000'0000'0000.
inline constexpr uint64_t kCodeBaseLine = 1ULL << 40;

/// Cap on the code lines one machine may fetch from (64 MiB of code; the
/// engines define a few thousand lines). It bounds the L1I's per-line
/// way map (CodeCache), so a trace reader rejects any region definition
/// that reaches past it.
inline constexpr uint64_t kMaxCodeLines = 1ULL << 20;

/// Descriptive metadata for one code module. `inside_engine` marks the
/// storage-manager/OLTP-engine side of the split the paper draws in its
/// Figure 7 breakdown (engine vs everything around it).
struct ModuleInfo {
  std::string name;
  bool inside_engine = false;
};

/// Registry of code modules for one simulated machine/engine pairing.
/// Capacity is bounded by kMaxModules — CoreCounters::per_module is a
/// fixed array of that many slots, so an unbounded registry would
/// mis-index or drop counters. Overflow registrations are clamped to
/// kNoModule (attributed to "<none>") with a one-time warning.
class ModuleRegistry {
 public:
  ModuleRegistry() {
    modules_.push_back({"<none>", false});  // kNoModule
  }

  ModuleId Register(std::string name, bool inside_engine) {
    if (static_cast<int>(modules_.size()) >= kMaxModules) {
      if (!overflowed_) {
        overflowed_ = true;
        std::fprintf(stderr,
                     "ModuleRegistry: module limit (%d) reached; \"%s\" "
                     "and later registrations fold into <none>\n",
                     kMaxModules, name.c_str());
      }
      return kNoModule;
    }
    modules_.push_back({std::move(name), inside_engine});
    return static_cast<ModuleId>(modules_.size() - 1);
  }

  const ModuleInfo& info(ModuleId id) const { return modules_[id]; }
  int size() const { return static_cast<int>(modules_.size()); }

 private:
  std::vector<ModuleInfo> modules_;
  bool overflowed_ = false;
};

/// A synthetic code range standing for one compiled code module. The
/// instruction-footprint model is documented in DESIGN.md:
///
///   - Executing the region fetches `touched_lines` consecutive i-cache
///     lines from it and retires `instructions` instructions.
///   - If `total_lines > touched_lines`, each execution starts at a
///     caller-chosen (typically pseudo-random) window inside the region —
///     the model of branchy legacy code whose dynamic path varies between
///     invocations and therefore exhibits poor temporal i-cache locality.
///   - `mispredicts_per_kinstr` feeds the branch term of the cycle model;
///     legacy, branch-heavy code has a higher rate than compiled
///     straight-line code.
struct CodeRegion {
  ModuleId module = kNoModule;
  uint64_t base_line = 0;
  uint32_t total_lines = 0;
  uint32_t touched_lines = 0;
  uint32_t instructions = 0;
  double mispredicts_per_kinstr = 0.0;
  /// Inherent cycles-per-instruction of this code with warm caches
  /// (0 = the machine default). Compiled straight-line code ~0.45;
  /// branchy legacy engine code ~0.9-1.0.
  double cpi = 0.0;
};

/// Allocates non-overlapping synthetic code address ranges, one dense
/// range of lines from kCodeBaseLine up. Code lines sit below the lines
/// real heap pointers shift down to (see kCodeBaseLine), so code and data
/// do not alias in the simulated caches.
class CodeSpace {
 public:
  /// Defines a region of `total_bytes` of code, of which `touched_bytes`
  /// are fetched per execution, retiring `instructions` instructions.
  CodeRegion Define(ModuleId module, uint32_t total_bytes,
                    uint32_t touched_bytes, uint32_t instructions,
                    double mispredicts_per_kinstr, double cpi = 0.0) {
    CodeRegion r;
    r.module = module;
    r.cpi = cpi;
    r.total_lines = LinesFor(total_bytes);
    r.touched_lines = LinesFor(touched_bytes);
    if (r.touched_lines > r.total_lines) r.touched_lines = r.total_lines;
    r.instructions = instructions;
    r.mispredicts_per_kinstr = mispredicts_per_kinstr;
    r.base_line = next_line_;
    // Pad between regions so that distinct modules never share a line.
    next_line_ += r.total_lines + 8;
    return r;
  }

  uint64_t lines_allocated() const { return next_line_ - kCodeBaseLine; }

 private:
  static uint32_t LinesFor(uint32_t bytes) {
    return (bytes + 63) / 64;
  }

  uint64_t next_line_ = kCodeBaseLine;
};

}  // namespace imoltp::mcsim

#endif  // IMOLTP_MCSIM_CODE_REGION_H_
