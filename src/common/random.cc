#include "common/random.h"

#include <cassert>
#include <cmath>

namespace esr {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void Rng::Seed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::Exponential(double mean) {
  assert(mean > 0.0);
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::Normal(double mean, double stddev) {
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace esr
