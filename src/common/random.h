#ifndef ESR_COMMON_RANDOM_H_
#define ESR_COMMON_RANDOM_H_

#include <cassert>
#include <cstdint>

namespace esr {

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. Every stochastic component of the library (workload
/// generation, latency sampling, clock skew) draws from an explicitly
/// seeded instance so that experiments are exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  /// Re-seeds the generator; identical seeds produce identical streams.
  void Seed(uint64_t seed);

  // The draws the workload generator makes per object are defined here,
  // inline: they run several times per generated op.

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    // 53 high bits -> uniform double in [0, 1).
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<int64_t>(NextU64());  // full range
    // Rejection-free modulo is fine here: range << 2^64 for all our uses,
    // so the bias is negligible for simulation purposes.
    return lo + static_cast<int64_t>(NextU64() % range);
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// True with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean);

  /// Standard normal via Box-Muller.
  double Normal(double mean, double stddev);

  /// Forks an independent generator whose stream is a deterministic
  /// function of this one's state; used to give each simulated component
  /// its own stream.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace esr

#endif  // ESR_COMMON_RANDOM_H_
