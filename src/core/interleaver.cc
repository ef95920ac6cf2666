#include "core/interleaver.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#if defined(__SANITIZE_ADDRESS__)
#define IMOLTP_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IMOLTP_ASAN_FIBERS 1
#endif
#endif

#ifdef IMOLTP_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif

namespace imoltp::core {

namespace {

/// One worker's stack mapping, guard page included. Transaction bodies
/// need a few KB; pages never touched cost no memory.
constexpr size_t kStackBytes = 1 << 20;

size_t PageBytes() {
  static const size_t bytes = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// AddressSanitizer keeps its own idea of the live stack; every switch
// from one stack to another goes through these two calls.
void StartSwitch(void** fake_stack, const void* bottom, size_t bytes) {
#ifdef IMOLTP_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack, bottom, bytes);
#else
  (void)fake_stack;
  (void)bottom;
  (void)bytes;
#endif
}

void FinishSwitch(void* fake_stack, const void** bottom, size_t* bytes) {
#ifdef IMOLTP_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, bottom, bytes);
#else
  (void)fake_stack;
  (void)bottom;
  (void)bytes;
#endif
}

}  // namespace

Interleaver::Interleaver(int workers, uint64_t seed)
    : fibers_(static_cast<size_t>(workers)), rng_(seed) {}

Interleaver::~Interleaver() {
  for (Fiber& f : fibers_) {
    if (f.stack != nullptr) munmap(f.stack, kStackBytes);
  }
}

void Interleaver::Run(const std::function<void(int)>& fn) {
  fn_ = &fn;
  const uintptr_t self = reinterpret_cast<uintptr_t>(this);
  live_.clear();
  for (int w = 0; w < static_cast<int>(fibers_.size()); ++w) {
    Fiber& f = fibers_[w];
    if (f.stack == nullptr) {
      void* p = mmap(nullptr, kStackBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
      if (p == MAP_FAILED) {
        std::perror("Interleaver: worker stack");
        std::abort();
      }
      f.stack = static_cast<char*>(p);
      // An overflow faults on the guard page instead of corrupting.
      mprotect(f.stack, PageBytes(), PROT_NONE);
    }
    getcontext(&f.context);
    f.context.uc_stack.ss_sp = f.stack + PageBytes();
    f.context.uc_stack.ss_size = kStackBytes - PageBytes();
    f.context.uc_link = &scheduler_;
    makecontext(&f.context, reinterpret_cast<void (*)()>(&Entry), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
    live_.push_back(w);
  }
  while (!live_.empty()) {
    SwitchTo(&scheduler_, live_[rng_.Uniform(live_.size())]);
    // Back here only when the running worker's fn returned.
    live_.erase(std::find(live_.begin(), live_.end(), current_));
  }
  fn_ = nullptr;
}

void Interleaver::Yield() {
  const int next = live_[rng_.Uniform(live_.size())];
  if (next != current_) SwitchTo(&fibers_[current_].context, next);
}

void Interleaver::SwitchTo(ucontext_t* from, int to) {
  Fiber& f = fibers_[to];
  current_ = to;
  void* fake_stack = nullptr;
  StartSwitch(&fake_stack, f.stack + PageBytes(),
              kStackBytes - PageBytes());
  swapcontext(from, &f.context);
  FinishSwitch(fake_stack, nullptr, nullptr);
}

void Interleaver::Entry(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Interleaver*>(
      (static_cast<uintptr_t>(hi) << 32) | lo);
  // The first worker to start is entered from the scheduler; later ones
  // may be entered from another worker.
  const void* from_stack = nullptr;
  size_t from_bytes = 0;
  FinishSwitch(nullptr, &from_stack, &from_bytes);
  if (self->scheduler_stack_bytes_ == 0) {
    self->scheduler_stack_ = from_stack;
    self->scheduler_stack_bytes_ = from_bytes;
  }
  (*self->fn_)(self->current_);
  // The worker's stack dies here; returning resumes uc_link, the
  // scheduler, with current_ still naming this worker.
  StartSwitch(nullptr, self->scheduler_stack_,
              self->scheduler_stack_bytes_);
}

}  // namespace imoltp::core
