// Observability tests: the ledger's recorded bandwidth series and the device
// counters must make the paper's phenomena *visible* during a real
// collection — this is what the bandwidth figures are built on.

#include <gtest/gtest.h>

#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

VmOptions MonitorVm(bool write_cache) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 96;
  o.heap.eden_regions = 64;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc = write_cache ? AllOptimizationsOptions(CollectorKind::kG1, 8)
                     : VanillaOptions(CollectorKind::kG1, 8);
  return o;
}

WorkloadProfile MonitorProfile() {
  WorkloadProfile p = RenaissanceProfile("als");
  p.total_allocation_bytes = 16 * 1024 * 1024;
  return p;
}

TEST(BandwidthObservabilityTest, RecorderCapturesGcTraffic) {
  Vm vm(MonitorVm(false));
  vm.heap_device().StartRecording();
  SyntheticApp app(&vm, MonitorProfile());
  app.Run();
  const std::vector<DeviceCounters> series = vm.heap_device().RecordedSeries();
  ASSERT_FALSE(series.empty());
  ASSERT_GT(vm.gc_stats().gc_count(), 0u);
  // The series and the device counters read the same ledger: every byte and
  // op is in both, exactly.
  DeviceCounters series_total;
  for (const DeviceCounters& epoch : series) {
    series_total += epoch;
  }
  const DeviceCounters c = vm.heap_device().counters();
  EXPECT_EQ(series_total.read_bytes, c.read_bytes);
  EXPECT_EQ(series_total.write_bytes, c.write_bytes);
  EXPECT_EQ(series_total.nt_write_bytes, c.nt_write_bytes);
  EXPECT_EQ(series_total.read_ops, c.read_ops);
  EXPECT_EQ(series_total.write_ops, c.write_ops);
}

TEST(BandwidthObservabilityTest, GcBucketsShowHigherReadShareThanAppBuckets) {
  Vm vm(MonitorVm(false));
  vm.heap_device().StartRecording();
  SyntheticApp app(&vm, MonitorProfile());
  app.Run();
  const std::vector<DeviceCounters> series = vm.heap_device().RecordedSeries();
  const uint64_t bucket_ns = vm.heap_device().ledger().bucket_ns();
  std::vector<std::pair<uint64_t, uint64_t>> pauses;
  for (const auto& c : vm.gc_stats().cycles()) {
    pauses.emplace_back(c.start_ns, c.start_ns + c.pause_ns);
  }
  ASSERT_FALSE(pauses.empty());
  double gc_read = 0.0;
  double gc_write = 0.0;
  double app_read = 0.0;
  double app_write = 0.0;
  for (size_t i = 0; i < series.size(); ++i) {
    const uint64_t t0 = i * bucket_ns;
    bool in_gc = false;
    for (const auto& [start, end] : pauses) {
      if (start < t0 + bucket_ns && end > t0) {
        in_gc = true;
        break;
      }
    }
    (in_gc ? gc_read : app_read) += static_cast<double>(series[i].read_bytes);
    (in_gc ? gc_write : app_write) += static_cast<double>(series[i].write_bytes);
  }
  // The app phase is allocation-write dominated; GC traversal reads heavily.
  EXPECT_GT(gc_read / (gc_read + gc_write), app_read / (app_read + app_write));
}

TEST(BandwidthObservabilityTest, WriteCacheShiftsNvmWritesIntoWritebackPhase) {
  Vm vm(MonitorVm(true));
  vm.heap_device().StartRecording();
  SyntheticApp app(&vm, MonitorProfile());
  app.Run();
  const std::vector<DeviceCounters> series = vm.heap_device().RecordedSeries();
  const uint64_t bucket_ns = vm.heap_device().ledger().bucket_ns();
  // Locate the longest pause; within it, the write traffic must concentrate
  // in the trailing (write-only) sub-phase.
  const GcCycleStats* longest = nullptr;
  for (const auto& c : vm.gc_stats().cycles()) {
    if (longest == nullptr || c.pause_ns > longest->pause_ns) {
      longest = &c;
    }
  }
  ASSERT_NE(longest, nullptr);
  ASSERT_GT(longest->writeback_phase_ns, 0u);
  const uint64_t read_phase_end = longest->start_ns + longest->read_phase_ns;
  double writes_in_read_phase = 0.0;
  double writes_in_writeback = 0.0;
  for (size_t i = 0; i < series.size(); ++i) {
    const uint64_t t0 = i * bucket_ns;
    if (t0 + bucket_ns <= longest->start_ns || t0 >= longest->start_ns + longest->pause_ns) {
      continue;
    }
    if (t0 + bucket_ns <= read_phase_end) {
      writes_in_read_phase += static_cast<double>(series[i].write_bytes);
    } else {
      writes_in_writeback += static_cast<double>(series[i].write_bytes);
    }
  }
  EXPECT_GT(writes_in_writeback, writes_in_read_phase)
      << "the write-only sub-phase must carry the bulk of NVM writes";
}

TEST(BandwidthObservabilityTest, NonTemporalBytesOnlyWithNtEnabled) {
  Vm vanilla_vm(MonitorVm(false));
  SyntheticApp vanilla_app(&vanilla_vm, MonitorProfile());
  vanilla_app.Run();
  EXPECT_EQ(vanilla_vm.heap_device().counters().nt_write_bytes, 0u);

  Vm opt_vm(MonitorVm(true));
  SyntheticApp opt_app(&opt_vm, MonitorProfile());
  opt_app.Run();
  EXPECT_GT(opt_vm.heap_device().counters().nt_write_bytes, 0u);
}

}  // namespace
}  // namespace nvmgc
