#include "src/util/histogram.h"

#include <bit>

#include "src/util/check.h"

namespace nvmgc {

Histogram::Histogram() : buckets_(64 * kSubBuckets, 0) {}

int Histogram::BucketIndex(uint64_t value) {
  if (value < kSubBuckets) {
    return static_cast<int>(value);
  }
  const int msb = 63 - std::countl_zero(value);
  const int exponent = msb - kSubBucketBits + 1;
  const int sub = static_cast<int>(value >> exponent) & (kSubBuckets - 1);
  return (exponent + 1) * kSubBuckets + sub;
}

uint64_t Histogram::BucketUpperBound(int index) {
  // Inverse of BucketIndex: index = (exponent + 1) * kSubBuckets + sub for
  // values >= kSubBuckets, and index == value below that.
  const int stored = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (stored == 0) {
    return static_cast<uint64_t>(sub);
  }
  const int exponent = stored - 1;
  // The bucket covers [sub << exponent, ((sub + 1) << exponent) - 1].
  return (static_cast<uint64_t>(sub + 1) << exponent) - 1;
}

void Histogram::Record(uint64_t value) { RecordMany(value, 1); }

void Histogram::RecordMany(uint64_t value, uint64_t count) {
  if (count == 0) {
    return;
  }
  const int idx = BucketIndex(value);
  NVMGC_DCHECK(idx >= 0 && idx < static_cast<int>(buckets_.size()));
  buckets_[idx] += count;
  count_ += count;
  sum_ += value * count;
  if (value < min_) {
    min_ = value;
  }
  if (value > max_) {
    max_ = value;
  }
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
}

uint64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
}

uint64_t Histogram::Percentile(double percentile) const {
  if (count_ == 0) {
    return 0;
  }
  if (percentile <= 0.0) {
    return min();
  }
  const uint64_t target =
      static_cast<uint64_t>(percentile / 100.0 * static_cast<double>(count_) + 0.5);
  uint64_t running = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    running += buckets_[i];
    if (running >= target && buckets_[i] > 0) {
      const uint64_t bound = BucketUpperBound(static_cast<int>(i));
      return bound > max_ ? max_ : bound;
    }
  }
  return max_;
}

}  // namespace nvmgc
