// Per-pause NVM bandwidth timeline, sampled from the device's traffic ledger.
//
// The BandwidthLedger already buckets every charged access into 150 us epochs
// for the mix estimator; the DeviceTimeline drains those same buckets right
// after each GC phase into a per-pause time series of read MB/s, write MB/s,
// the read/write interleave ratio, and the BandwidthModel's effective-
// bandwidth estimate for that bucket's mix. Each sample is attributed to the
// enclosing phase (read-mostly copy/traverse vs write-only write-back), which
// is what lets a Perfetto counter track visualize the paper's Figure 7 story:
// the vanilla collector holds a mixed interleave through the whole pause while
// the optimized one separates into a read plateau followed by a write burst.
//
// Sampling rules:
//  - a bucket belongs to a phase iff its *start* timestamp lies inside
//    [phase_start, phase_end): no bucket is counted twice across the two
//    contiguous phases, and the partial first bucket (contaminated with
//    pre-pause mutator traffic) is excluded;
//  - sampling must happen synchronously at pause end, while the buckets are
//    still resident in the ledger ring (64 buckets x 150 us ≈ 9.6 ms of
//    simulated time); evicted epochs are counted in missing_buckets().
//
// Not thread-safe: the collector samples once per pause, at pause end, on the
// one host thread that steps the whole pause.

#ifndef NVMGC_SRC_OBS_DEVICE_TIMELINE_H_
#define NVMGC_SRC_OBS_DEVICE_TIMELINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace nvmgc {

class GcTracer;
class MemoryDevice;

enum class GcPhaseKind : uint8_t {
  kRead,       // Parallel copy-and-traverse (read-mostly).
  kWriteback,  // Cache flush + header-map clear (write-only).
};

const char* GcPhaseKindName(GcPhaseKind phase);

// One ledger bucket, resolved into rates. `time_ns` is the bucket start in
// simulated time; rates are averaged over the full bucket width.
struct TimelineSample {
  uint64_t pause_id = 0;  // 1-based GC cycle ordinal.
  GcPhaseKind phase = GcPhaseKind::kRead;
  uint64_t time_ns = 0;
  double read_mbps = 0.0;
  double write_mbps = 0.0;
  // Write share of the bucket's traffic: 0 = pure read, 1 = pure write.
  double interleave = 0.0;
  // BandwidthModel effective total bandwidth (MB/s) under this bucket's mix —
  // the ceiling the device arbiter enforced while this bucket filled.
  double model_mbps = 0.0;

  double total_mbps() const { return read_mbps + write_mbps; }
};

class DeviceTimeline {
 public:
  // Samples `device`'s ledger; the device must outlive the timeline.
  explicit DeviceTimeline(const MemoryDevice* device);

  DeviceTimeline(const DeviceTimeline&) = delete;
  DeviceTimeline& operator=(const DeviceTimeline&) = delete;

  // Drains the ledger buckets whose start lies in [start_ns, end_ns) and
  // appends one sample per non-empty resident bucket. `active_threads` is the
  // thread count to evaluate the bandwidth model under (the GC worker count
  // during a pause). Returns the number of samples appended.
  size_t SamplePhase(uint64_t pause_id, GcPhaseKind phase, uint64_t start_ns,
                     uint64_t end_ns, uint32_t active_threads);

  // Emits samples [from_index, size()) as Chrome-trace counter events on the
  // tracer's currently bound thread: nvm.read_mbps, nvm.write_mbps,
  // nvm.interleave, nvm.model_mbps (category "nvm").
  void EmitCounters(GcTracer* tracer, size_t from_index) const;

  const std::vector<TimelineSample>& samples() const { return samples_; }
  size_t size() const { return samples_.size(); }

  // Mean rates over one phase of one pause, for consumers that want a single
  // number per phase (the adaptive policy's interleave / effective-bandwidth
  // signals). Zero-filled when the phase produced no samples.
  struct PhaseAverages {
    size_t sample_count = 0;
    double read_mbps = 0.0;
    double write_mbps = 0.0;
    double interleave = 0.0;
    double model_mbps = 0.0;
  };
  // Scans backward from the newest sample, so querying the pause that just
  // ended is O(samples of that pause).
  PhaseAverages AveragePhase(uint64_t pause_id, GcPhaseKind phase) const;

  // Buckets requested but no longer resident in the ledger ring (sampled too
  // late) — should stay 0 when sampling synchronously at pause end.
  uint64_t missing_buckets() const { return missing_buckets_; }
  // Samples discarded once the retention cap was reached.
  uint64_t dropped_samples() const { return dropped_samples_; }

  void Clear();

 private:
  static constexpr size_t kMaxSamples = 1u << 18;  // ~14 MB worst case.

  const MemoryDevice* device_;
  std::vector<TimelineSample> samples_;
  uint64_t missing_buckets_ = 0;
  uint64_t dropped_samples_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_OBS_DEVICE_TIMELINE_H_
