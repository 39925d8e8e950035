// Log-bucketed histogram for latency percentiles (HdrHistogram-style, simplified).

#ifndef NVMGC_SRC_UTIL_HISTOGRAM_H_
#define NVMGC_SRC_UTIL_HISTOGRAM_H_

#include <cstdint>
#include <vector>

namespace nvmgc {

// Records non-negative 64-bit values (typically nanoseconds) with ~3% relative
// error per bucket, supporting percentile queries. Not thread-safe.
class Histogram {
 public:
  Histogram();

  void Record(uint64_t value);
  void RecordMany(uint64_t value, uint64_t count);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t min() const;
  uint64_t max() const { return max_; }
  double Mean() const;

  // percentile in [0, 100]; returns an upper bound of the bucket containing it.
  uint64_t Percentile(double percentile) const;

 private:
  // Buckets: 64 exponents x 16 linear sub-buckets.
  static constexpr int kSubBucketBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;

  static int BucketIndex(uint64_t value);
  static uint64_t BucketUpperBound(int index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_HISTOGRAM_H_
