#include "src/util/random.h"

#include <cmath>

#include "src/util/check.h"

namespace nvmgc {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) {
    s = SplitMix64(&sm);
  }
}

uint64_t Random::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

uint64_t Random::NextBelow(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Multiply-shift reduction; bias is negligible for our bounds (< 2^48).
  return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
}

uint64_t Random::NextInRange(uint64_t lo, uint64_t hi) {
  NVMGC_DCHECK(lo <= hi);
  return lo + NextBelow(hi - lo + 1);
}

double Random::NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

bool Random::NextBool(double probability) { return NextDouble() < probability; }

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  // Exact for small n; truncated + tail-integrated for large n so that building
  // a generator over millions of keys stays O(1)-ish.
  constexpr uint64_t kExactTerms = 10000;
  double sum = 0.0;
  const uint64_t exact = n < kExactTerms ? n : kExactTerms;
  for (uint64_t i = 1; i <= exact; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  if (n > exact && theta != 1.0) {
    const double a = static_cast<double>(exact);
    const double b = static_cast<double>(n);
    sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) / (1.0 - theta);
  }
  return sum;
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta, uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  NVMGC_CHECK(n > 0);
  zetan_ = Zeta(n, theta);
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
}

uint64_t ZipfGenerator::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < 1.0 + std::pow(0.5, theta_)) {
    return 1;
  }
  const double idx = static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_);
  uint64_t result = static_cast<uint64_t>(idx);
  if (result >= n_) {
    result = n_ - 1;
  }
  return result;
}

}  // namespace nvmgc
