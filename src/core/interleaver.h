#ifndef IMOLTP_CORE_INTERLEAVER_H_
#define IMOLTP_CORE_INTERLEAVER_H_

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

namespace imoltp::core {

/// Runs W workers as stackful coroutines (glibc ucontext) on the calling
/// thread. At every Yield() a seeded RNG draws the next worker from the
/// live ones, possibly the caller, and control passes straight to it.
/// The same seed and the same workers therefore give the same switch
/// sequence in every process. Nothing runs in parallel: one host thread
/// drives every worker, so shared structures need no host lock.
class Interleaver {
 public:
  Interleaver(int workers, uint64_t seed);
  ~Interleaver();

  Interleaver(const Interleaver&) = delete;
  Interleaver& operator=(const Interleaver&) = delete;

  /// Runs fn(w) for every worker w until all of them return.
  void Run(const std::function<void(int)>& fn);

  /// Draws the next worker and switches to it unless it is the caller.
  /// Call only from inside Run's fn.
  void Yield();

 private:
  struct Fiber {
    ucontext_t context;
    char* stack = nullptr;  // mapping base; its lowest page is a guard
  };

  static void Entry(unsigned hi, unsigned lo);
  /// Saves the running context in `from` and resumes worker `to`.
  void SwitchTo(ucontext_t* from, int to);

  std::vector<Fiber> fibers_;
  std::vector<int> live_;  // workers whose fn has not returned
  ucontext_t scheduler_;   // Run's loop; a returning worker lands here
  Rng rng_;
  int current_ = -1;
  const std::function<void(int)>* fn_ = nullptr;
  // The scheduler's stack, as AddressSanitizer needs it for the switch
  // out of a returning worker.
  const void* scheduler_stack_ = nullptr;
  size_t scheduler_stack_bytes_ = 0;
};

}  // namespace imoltp::core

#endif  // IMOLTP_CORE_INTERLEAVER_H_
