// Tests for the per-pause NVM bandwidth timeline (src/obs/device_timeline.h):
// unit-level bucket draining, and the integration-level claims the
// instrumentation exists to demonstrate — the optimized collector's read
// phase is read-dominated and its write-back phase write-dominated on the NVM
// device, and the write cache turns scattered survivor writes into a few
// whole-region writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/obs/device_timeline.h"
#include "src/obs/trace.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

// ---------- DeviceTimeline unit tests ----------

TEST(DeviceTimelineTest, DrainsChargedBucketsIntoRates) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;

  // Charge reads into bucket 10 and writes into bucket 11 (resetting the
  // clock each time so each charge lands at a controlled timestamp).
  clock.SetTime(10 * bucket_ns + 1);
  device.Access(&clock, SequentialRead(0x1000, 60000));
  clock.SetTime(11 * bucket_ns + 1);
  device.Access(&clock, SequentialWrite(0x2000, 30000));

  DeviceTimeline timeline(&device);
  const size_t n = timeline.SamplePhase(/*pause_id=*/1, GcPhaseKind::kRead,
                                        10 * bucket_ns, 12 * bucket_ns,
                                        /*active_threads=*/4);
  ASSERT_EQ(n, 2u);
  ASSERT_EQ(timeline.samples().size(), 2u);

  const TimelineSample& read_bucket = timeline.samples()[0];
  EXPECT_EQ(read_bucket.pause_id, 1u);
  EXPECT_EQ(read_bucket.phase, GcPhaseKind::kRead);
  EXPECT_EQ(read_bucket.time_ns, 10 * bucket_ns);
  // 60000 bytes over a 150 us bucket = 400 MB/s.
  EXPECT_DOUBLE_EQ(read_bucket.read_mbps, 60000.0 * 1000.0 / bucket_ns);
  EXPECT_DOUBLE_EQ(read_bucket.write_mbps, 0.0);
  EXPECT_DOUBLE_EQ(read_bucket.interleave, 0.0);
  EXPECT_GT(read_bucket.model_mbps, 0.0);

  const TimelineSample& write_bucket = timeline.samples()[1];
  EXPECT_EQ(write_bucket.time_ns, 11 * bucket_ns);
  EXPECT_DOUBLE_EQ(write_bucket.write_mbps, 30000.0 * 1000.0 / bucket_ns);
  EXPECT_DOUBLE_EQ(write_bucket.interleave, 1.0);
  EXPECT_EQ(timeline.missing_buckets(), 0u);
}

TEST(DeviceTimelineTest, BucketStartInRangeRuleExcludesPartialFirstBucket) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;
  clock.SetTime(10 * bucket_ns + 1);
  device.Access(&clock, SequentialRead(0x1000, 4096));

  DeviceTimeline timeline(&device);
  // Phase starts mid-bucket-10: bucket 10's start is outside [start, end), so
  // the (mutator-contaminated) partial bucket must not be sampled.
  const size_t n = timeline.SamplePhase(1, GcPhaseKind::kRead,
                                        10 * bucket_ns + bucket_ns / 2,
                                        11 * bucket_ns, 1);
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(timeline.samples().empty());
}

TEST(DeviceTimelineTest, EvictedEpochsCountAsMissing) {
  MemoryDevice device(MakeOptaneProfile());
  const uint64_t bucket_ns = device.ledger().bucket_ns();
  SimClock clock;
  // Charge once far in the future so the ring slots for early epochs hold
  // nothing; sampling an early uncharged window yields only missing buckets.
  clock.SetTime(1000 * bucket_ns);
  device.Access(&clock, SequentialRead(0x1000, 4096));

  DeviceTimeline timeline(&device);
  const size_t n = timeline.SamplePhase(1, GcPhaseKind::kRead, 0, 3 * bucket_ns, 1);
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(timeline.missing_buckets(), 3u);
}

// ---------- Integration: a real collector run ----------

VmOptions TimelineVm(const GcOptions& gc) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 64;
  o.heap.eden_regions = 48;
  o.heap.tenure_age = 8;  // Keep survivors young: no promotion traffic.
  o.gc = gc;
  o.trace_gc = true;
  return o;
}

GcOptions OptimizedGc() {
  return GcOptionsBuilder(AllOptimizationsOptions(CollectorKind::kG1, 4))
      .HeaderMapMinThreads(2)
      .Build();
}

// Allocates a ~1.5 MiB live graph and runs two collections.
void RunLiveGraphWorkload(Vm* vm) {
  Mutator* m = vm->CreateMutator();
  const KlassId refs = vm->heap().klasses().RegisterRefArray("Object[]");
  const KlassId blob = vm->heap().klasses().RegisterByteArray("byte[]");
  constexpr size_t kNodes = 1536;
  GlobalRoot table(*vm, m->Allocate({refs, kNodes}));
  for (size_t i = 0; i < kNodes; ++i) {
    m->WriteRef(table.Get(), i, m->Allocate({blob, 1024}));
  }
  vm->CollectNow();
  vm->CollectNow();
}

// The acceptance-criterion test: under the optimized collector the NVM-side
// read phase must be read-dominated and the write-back phase write-dominated.
TEST(DeviceTimelineIntegrationTest, PhasesHaveTheExpectedInterleaveDirection) {
  Vm vm(TimelineVm(OptimizedGc()));
  RunLiveGraphWorkload(&vm);

  const DeviceTimeline& timeline = vm.timeline();
  ASSERT_FALSE(timeline.samples().empty());
  // A phase's final bucket may start in the last sliver before end_ns with no
  // traffic charged into it yet (sampling runs synchronously at pause end),
  // so allow up to one missing bucket per sampled phase: 2 phases x 2 pauses.
  EXPECT_LE(timeline.missing_buckets(), 4u);

  double read_phase_read = 0.0, read_phase_write = 0.0;
  double wb_phase_read = 0.0, wb_phase_write = 0.0;
  size_t read_samples = 0, wb_samples = 0;
  for (const TimelineSample& s : timeline.samples()) {
    EXPECT_GE(s.interleave, 0.0);
    EXPECT_LE(s.interleave, 1.0);
    EXPECT_GT(s.model_mbps, 0.0);
    if (s.phase == GcPhaseKind::kRead) {
      read_phase_read += s.read_mbps;
      read_phase_write += s.write_mbps;
      ++read_samples;
    } else {
      wb_phase_read += s.read_mbps;
      wb_phase_write += s.write_mbps;
      ++wb_samples;
    }
  }
  ASSERT_GT(read_samples, 0u);
  ASSERT_GT(wb_samples, 0u);
  // Staged copies land in DRAM, so NVM traffic during copy/traverse is
  // reads; the write-back streams whole regions out.
  EXPECT_GT(read_phase_read, read_phase_write);
  EXPECT_GT(wb_phase_write, wb_phase_read);

  // Every sample falls inside its pause's phase window.
  const auto& cycles = vm.gc_stats().cycles();
  for (const TimelineSample& s : timeline.samples()) {
    ASSERT_GE(s.pause_id, 1u);
    ASSERT_LE(s.pause_id, cycles.size());
    const GcCycleStats& c = cycles[s.pause_id - 1];
    const uint64_t read_end = c.start_ns + c.read_phase_ns;
    if (s.phase == GcPhaseKind::kRead) {
      EXPECT_GE(s.time_ns, c.start_ns);
      EXPECT_LT(s.time_ns, read_end);
    } else {
      EXPECT_GE(s.time_ns, read_end);
      EXPECT_LT(s.time_ns, c.start_ns + c.pause_ns);
    }
  }
}

TEST(DeviceTimelineIntegrationTest, TracerCarriesCounterTracks) {
  Vm vm(TimelineVm(OptimizedGc()));
  RunLiveGraphWorkload(&vm);

  size_t counters = 0;
  bool saw_read = false, saw_write = false, saw_interleave = false, saw_model = false;
  for (const TraceEvent& e : vm.tracer().SortedEvents()) {
    if (e.kind != TraceEventKind::kCounter) {
      continue;
    }
    ++counters;
    EXPECT_EQ(e.tid, vm.tracer().control_tid());
    const std::string name = e.name;
    saw_read |= name == "nvm.read_mbps";
    saw_write |= name == "nvm.write_mbps";
    saw_interleave |= name == "nvm.interleave";
    saw_model |= name == "nvm.model_mbps";
  }
  EXPECT_EQ(counters, vm.timeline().samples().size() * 4);
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_interleave);
  EXPECT_TRUE(saw_model);

  // Counter events serialize as Chrome-trace "ph":"C" with a numeric value.
  std::string chrome;
  vm.tracer().AppendChromeEvents(&chrome, /*pid=*/1, "device_timeline_test");
  EXPECT_NE(chrome.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(chrome.find("\"nvm.read_mbps\""), std::string::npos);
  EXPECT_NE(chrome.find("\"args\":{\"value\":"), std::string::npos);
}

// A collection of `nodes` live 1 KiB arrays under one root table: the NVM
// write ops its pause issued (the heap device's ledger delta around
// CollectNow) and the pause's stats.
struct PauseWrites {
  uint64_t nvm_write_ops = 0;
  GcCycleStats cycle;
};

PauseWrites CollectLiveNodes(const GcOptions& gc, size_t nodes) {
  Vm vm(TimelineVm(gc));
  Mutator* m = vm.CreateMutator();
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const KlassId blob = vm.heap().klasses().RegisterByteArray("byte[]");
  GlobalRoot table(vm, m->Allocate({refs, nodes}));
  for (size_t i = 0; i < nodes; ++i) {
    m->WriteRef(table.Get(), i, m->Allocate({blob, 1024}));
  }
  const uint64_t before = vm.heap_device().counters().write_ops;
  PauseWrites out;
  out.cycle = vm.CollectNow();
  out.nvm_write_ops = vm.heap_device().counters().write_ops - before;
  return out;
}

// The paper's spatial claim, counted exactly. 384 live nodes fit the write
// cache, so every survivor is staged in DRAM: with the header map on, the
// optimized pause writes NVM only to flush whole regions, one write each.
// Without the header map each forwarding install is one more small NVM write
// per copied object. The vanilla collector copies each object straight into
// NVM and installs its forwarding pointer there too: two or more scattered
// writes per object.
TEST(AccessHeatmapIntegrationTest, WriteCacheSequentializesNvmWrites) {
  constexpr size_t kNodes = 384;
  const PauseWrites all = CollectLiveNodes(OptimizedGc(), kNodes);
  const uint64_t regions = all.cycle.regions_flushed_sync + all.cycle.regions_flushed_async;
  ASSERT_GT(regions, 0u);
  EXPECT_GT(all.cycle.header_map_installs, 0u);
  EXPECT_EQ(all.cycle.cache_overflow_bytes, 0u);
  EXPECT_EQ(all.nvm_write_ops, regions);

  const PauseWrites no_map = CollectLiveNodes(AllOptimizationsOptions(CollectorKind::kG1, 1),
                                              kNodes);
  EXPECT_EQ(no_map.cycle.header_map_installs, 0u);
  EXPECT_EQ(no_map.nvm_write_ops, no_map.cycle.regions_flushed_sync +
                                      no_map.cycle.regions_flushed_async +
                                      no_map.cycle.objects_copied);

  const PauseWrites vanilla = CollectLiveNodes(VanillaOptions(CollectorKind::kG1, 4), kNodes);
  ASSERT_GT(vanilla.cycle.objects_copied, kNodes);
  EXPECT_GE(vanilla.nvm_write_ops, 2 * vanilla.cycle.objects_copied);
}

}  // namespace
}  // namespace nvmgc
