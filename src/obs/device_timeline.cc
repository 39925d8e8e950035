#include "src/obs/device_timeline.h"

#include "src/nvm/memory_device.h"
#include "src/obs/trace.h"

namespace nvmgc {

const char* GcPhaseKindName(GcPhaseKind phase) {
  switch (phase) {
    case GcPhaseKind::kRead:
      return "read";
    case GcPhaseKind::kWriteback:
      return "writeback";
  }
  return "unknown";
}

DeviceTimeline::DeviceTimeline(const MemoryDevice* device) : device_(device) {}

size_t DeviceTimeline::SamplePhase(uint64_t pause_id, GcPhaseKind phase, uint64_t start_ns,
                                   uint64_t end_ns, uint32_t active_threads) {
  if (device_ == nullptr || end_ns <= start_ns) {
    return 0;
  }
  const BandwidthLedger& ledger = device_->ledger();
  const uint64_t bucket_ns = ledger.bucket_ns();
  // First bucket whose start is >= start_ns; last bucket whose start < end_ns.
  const uint64_t first_epoch = (start_ns + bucket_ns - 1) / bucket_ns;
  const uint64_t end_epoch = (end_ns + bucket_ns - 1) / bucket_ns;
  size_t appended = 0;
  for (uint64_t epoch = first_epoch; epoch < end_epoch; ++epoch) {
    DeviceCounters bucket;
    if (!ledger.ReadBucket(epoch, &bucket)) {
      // Never charged (a genuinely idle bucket) is indistinguishable from
      // evicted here; both read as absent. Treat absent buckets inside an
      // active GC phase as missing — an idle 150 us window mid-phase would
      // itself be a finding.
      ++missing_buckets_;
      continue;
    }
    const uint64_t total = bucket.total_bytes();
    if (total == 0) {
      continue;
    }
    if (samples_.size() >= kMaxSamples) {
      ++dropped_samples_;
      continue;
    }
    TimelineSample s;
    s.pause_id = pause_id;
    s.phase = phase;
    s.time_ns = epoch * bucket_ns;
    // 1 MB/s == 1e6 bytes / 1e9 ns, so MB/s = bytes * 1000 / bucket_ns.
    s.read_mbps = static_cast<double>(bucket.read_bytes) * 1000.0 / bucket_ns;
    s.write_mbps = static_cast<double>(bucket.write_bytes) * 1000.0 / bucket_ns;
    s.interleave = static_cast<double>(bucket.write_bytes) / static_cast<double>(total);
    MixState mix;
    mix.write_fraction = s.interleave;
    mix.nt_write_fraction = static_cast<double>(bucket.nt_write_bytes) / static_cast<double>(total);
    mix.active_threads = active_threads == 0 ? 1 : active_threads;
    s.model_mbps = device_->model().TotalBandwidthMbps(mix);
    samples_.push_back(s);
    ++appended;
  }
  return appended;
}

DeviceTimeline::PhaseAverages DeviceTimeline::AveragePhase(uint64_t pause_id,
                                                           GcPhaseKind phase) const {
  PhaseAverages avg;
  for (size_t i = samples_.size(); i-- > 0;) {
    const TimelineSample& s = samples_[i];
    if (s.pause_id < pause_id) {
      break;  // Samples are appended in pause order.
    }
    if (s.pause_id != pause_id || s.phase != phase) {
      continue;
    }
    avg.read_mbps += s.read_mbps;
    avg.write_mbps += s.write_mbps;
    avg.interleave += s.interleave;
    avg.model_mbps += s.model_mbps;
    ++avg.sample_count;
  }
  if (avg.sample_count > 0) {
    const double inv = 1.0 / static_cast<double>(avg.sample_count);
    avg.read_mbps *= inv;
    avg.write_mbps *= inv;
    avg.interleave *= inv;
    avg.model_mbps *= inv;
  }
  return avg;
}

void DeviceTimeline::EmitCounters(GcTracer* tracer, size_t from_index) const {
  if (tracer == nullptr || !tracer->enabled()) {
    return;
  }
  for (size_t i = from_index; i < samples_.size(); ++i) {
    const TimelineSample& s = samples_[i];
    tracer->EmitCounter("nvm.read_mbps", "nvm", s.time_ns, s.read_mbps);
    tracer->EmitCounter("nvm.write_mbps", "nvm", s.time_ns, s.write_mbps);
    tracer->EmitCounter("nvm.interleave", "nvm", s.time_ns, s.interleave);
    tracer->EmitCounter("nvm.model_mbps", "nvm", s.time_ns, s.model_mbps);
  }
}

void DeviceTimeline::Clear() {
  samples_.clear();
  missing_buckets_ = 0;
  dropped_samples_ = 0;
}

}  // namespace nvmgc
