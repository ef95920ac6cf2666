#ifndef IMOLTP_COMMON_SEED_H_
#define IMOLTP_COMMON_SEED_H_

#include <cstdint>

namespace imoltp {

/// Named RNG stream ids for DeriveSeed. Every subsystem that derives a
/// per-node / per-worker / per-cycle seed from a base seed names its
/// stream here, so no two call sites can collide by reusing the same
/// ad-hoc arithmetic (the bug class this helper replaces: `seed + i`
/// from two different layers producing correlated streams).
enum class SeedStream : uint64_t {
  kWorker = 1,        // per-worker transaction RNGs (ExperimentRunner)
  kChaosInjector = 2, // per-cycle fault injector (chaos harness)
  kChaosRun = 3,      // per-cycle experiment seed (chaos harness)
  kNodeClient = 4,    // per-node client/generator RNG (dist cluster)
  kNodeEngine = 5,    // per-node engine-level randomness (dist cluster)
  kClusterFault = 6,  // cluster-level fault injector (dist cluster)
  kTxnTrace = 7,      // distributed-trace ids (dist cluster tracing)
  kScheduler = 8,     // interleaved worker switches (ExperimentRunner)
};

/// Derives a decorrelated child seed from `base` for (entity, stream).
/// SplitMix64-style finalizer over the three inputs: any bit change in
/// any input avalanches through the result, so node 0/stream k and
/// node 1/stream k share no structure (unlike `base + node`, where
/// neighboring streams start one state apart). Deterministic and
/// platform-independent; safe to fingerprint.
inline uint64_t DeriveSeed(uint64_t base, uint64_t entity,
                           SeedStream stream) {
  uint64_t z = base;
  z += 0x9e3779b97f4a7c15ULL * (entity + 1);
  z += 0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(stream);
  z ^= z >> 30;
  z *= 0xbf58476d1ce4e5b9ULL;
  z ^= z >> 27;
  z *= 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return z;
}

/// Two-level derivation for (entity, sub-entity) pairs, e.g. worker i
/// of node n: DeriveSeed2(base, n, i, stream).
inline uint64_t DeriveSeed2(uint64_t base, uint64_t entity,
                            uint64_t sub_entity, SeedStream stream) {
  return DeriveSeed(DeriveSeed(base, entity, stream), sub_entity, stream);
}

}  // namespace imoltp

#endif  // IMOLTP_COMMON_SEED_H_
