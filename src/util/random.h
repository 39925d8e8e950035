// Deterministic pseudo-random utilities used by workload generators and tests.
//
// We avoid <random> engines in workload code so that a workload seeded with the
// same value produces the identical object graph on every platform (libstdc++
// distributions are not specified bit-exactly).

#ifndef NVMGC_SRC_UTIL_RANDOM_H_
#define NVMGC_SRC_UTIL_RANDOM_H_

#include <cstdint>
#include <vector>

namespace nvmgc {

// xoshiro256** with a splitmix64 seeder; fast, high quality, reproducible.
class Random {
 public:
  explicit Random(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value.
  uint64_t Next() {
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

  // Uniform in [0, bound). bound == 0 returns 0.
  uint64_t NextBelow(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Multiply-shift reduction; bias is negligible for our bounds (< 2^48).
    return static_cast<uint64_t>((static_cast<__uint128_t>(Next()) * bound) >> 64);
  }

  // Uniform in [lo, hi] inclusive.
  uint64_t NextInRange(uint64_t lo, uint64_t hi);

  // Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Bernoulli trial.
  bool NextBool(double probability) { return NextDouble() < probability; }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

// Zipfian generator over [0, n) with exponent theta; used to model skewed
// object popularity (Spark RDD hot keys, Cassandra row popularity).
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta, uint64_t seed);

  uint64_t Next();

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Random rng_;

  static double Zeta(uint64_t n, double theta);
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_RANDOM_H_
