// Tests for GcOptions::Validate(), the chainable GcOptionsBuilder, and the
// fail-fast paths (Build() and the Vm constructor die with the Validate()
// message on an incoherent configuration).

#include <gtest/gtest.h>

#include <string>

#include "src/gc/gc_options.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

// Every error message must say what is wrong AND which setter/flag fixes it.
void ExpectError(const GcOptions& o, const std::string& what,
                 const std::string& hint) {
  const std::string error = o.Validate();
  ASSERT_FALSE(error.empty()) << "expected a validation error mentioning "
                              << what;
  EXPECT_NE(error.find(what), std::string::npos) << error;
  EXPECT_NE(error.find(hint), std::string::npos)
      << "error lacks an actionable hint: " << error;
  EXPECT_FALSE(o.valid());
}

TEST(GcOptionsValidateTest, DefaultsAndPresetsAreValid) {
  EXPECT_TRUE(GcOptions{}.valid());
  for (const CollectorKind kind :
       {CollectorKind::kG1, CollectorKind::kParallelScavenge}) {
    EXPECT_TRUE(VanillaOptions(kind, 8).valid());
    EXPECT_TRUE(WriteCacheOptions(kind, 8).valid());
    EXPECT_TRUE(AllOptimizationsOptions(kind, 8).valid());
  }
}

TEST(GcOptionsValidateTest, RejectsZeroGcThreads) {
  GcOptions o;
  o.gc_threads = 0;
  ExpectError(o, "gc_threads", "GcThreads");
}

TEST(GcOptionsValidateTest, RejectsWriteCacheKnobsWithoutWriteCache) {
  {
    GcOptions o;
    o.async_flush = true;
    ExpectError(o, "async_flush requires use_write_cache", "WriteCache()");
  }
  {
    GcOptions o;
    o.use_non_temporal = true;
    ExpectError(o, "use_non_temporal requires use_write_cache", "WriteCache()");
  }
  {
    GcOptions o;
    o.write_cache_bytes = 1 << 20;
    ExpectError(o, "write_cache_bytes", "WriteCacheBytes()");
  }
  {
    GcOptions o;
    o.unlimited_write_cache = true;
    ExpectError(o, "unlimited_write_cache", "UnlimitedWriteCache()");
  }
}

TEST(GcOptionsValidateTest, RejectsUnlimitedCacheWithExplicitCap) {
  GcOptions o;
  o.use_write_cache = true;
  o.unlimited_write_cache = true;
  o.write_cache_bytes = 1 << 20;
  ExpectError(o, "contradicts", "WriteCacheBytes()");
}

TEST(GcOptionsValidateTest, RejectsHeaderMapKnobsWithoutHeaderMap) {
  {
    GcOptions o;
    o.prefetch_header_map = true;
    ExpectError(o, "prefetch_header_map requires use_header_map",
                "HeaderMap()");
  }
  {
    GcOptions o;
    o.header_map_bytes = 1 << 20;
    ExpectError(o, "header_map_bytes", "HeaderMapBytes()");
  }
}

TEST(GcOptionsValidateTest, RejectsHeaderMapPrefetchWithoutPrefetch) {
  GcOptions o;
  o.use_header_map = true;
  o.prefetch = false;
  o.prefetch_header_map = true;
  ExpectError(o, "prefetch_header_map requires prefetch", "Prefetch()");
}

TEST(GcOptionsValidateTest, RejectsZeroLabBytesForParallelScavenge) {
  GcOptions o;
  o.collector = CollectorKind::kParallelScavenge;
  o.lab_bytes = 0;
  ExpectError(o, "lab_bytes", "LabBytes");
  // G1 never uses LABs, so the same setting is fine there.
  o.collector = CollectorKind::kG1;
  EXPECT_TRUE(o.valid());
}

TEST(GcOptionsValidateTest, AdaptivePresetAndBuilderAreValid) {
  for (const CollectorKind kind :
       {CollectorKind::kG1, CollectorKind::kParallelScavenge}) {
    const GcOptions preset = AdaptiveOptions(kind, 8);
    EXPECT_TRUE(preset.valid());
    EXPECT_TRUE(preset.adaptive_policy);
    // The preset starts from every optimization plus async flushing, so the
    // controller has all knobs to tune.
    EXPECT_TRUE(preset.use_write_cache);
    EXPECT_TRUE(preset.use_header_map);
    EXPECT_TRUE(preset.async_flush);
  }
  EXPECT_TRUE(GcOptionsBuilder().AdaptivePolicy().Build().adaptive_policy);
  EXPECT_FALSE(GcOptionsBuilder().AdaptivePolicy(false).Build().adaptive_policy);
}

TEST(GcOptionsValidateTest, RejectsAdaptiveWithUnlimitedWriteCache) {
  GcOptions o = AllOptimizationsOptions(CollectorKind::kG1, 8);
  o.unlimited_write_cache = true;
  o.write_cache_bytes = 0;
  o.adaptive_policy = true;
  ExpectError(o, "adaptive_policy contradicts unlimited_write_cache",
              "UnlimitedWriteCache()");
}

TEST(GcOptionsValidateTest, DurablePresetAndBuilderAreValid) {
  for (const CollectorKind kind :
       {CollectorKind::kG1, CollectorKind::kParallelScavenge}) {
    const GcOptions preset = DurableOptions(kind, 8);
    EXPECT_TRUE(preset.valid());
    EXPECT_TRUE(preset.durable);
    // Durability rides on the full optimization stack: the commit protocol
    // persists the write cache's drained runs.
    EXPECT_TRUE(preset.use_write_cache);
  }
  EXPECT_TRUE(GcOptionsBuilder()
                  .WriteCache()
                  .Durability()
                  .Build()
                  .durable);
  EXPECT_FALSE(GcOptionsBuilder().Durability(false).Build().durable);
}

TEST(GcOptionsBuilderTest, ChainsSetEveryField) {
  const GcOptions o = GcOptionsBuilder()
                          .Collector(CollectorKind::kParallelScavenge)
                          .GcThreads(12)
                          .WriteCache()
                          .WriteCacheBytes(4 << 20)
                          .HeaderMap()
                          .HeaderMapBytes(2 << 20)
                          .HeaderMapMinThreads(4)
                          .NonTemporal()
                          .AsyncFlush()
                          .Prefetch()
                          .PrefetchHeaderMap()
                          .LabBytes(32 * 1024)
                          .Build();
  EXPECT_EQ(o.collector, CollectorKind::kParallelScavenge);
  EXPECT_EQ(o.gc_threads, 12u);
  EXPECT_TRUE(o.use_write_cache);
  EXPECT_EQ(o.write_cache_bytes, size_t{4} << 20);
  EXPECT_TRUE(o.use_header_map);
  EXPECT_EQ(o.header_map_bytes, size_t{2} << 20);
  EXPECT_EQ(o.header_map_min_threads, 4u);
  EXPECT_TRUE(o.use_non_temporal);
  EXPECT_TRUE(o.async_flush);
  EXPECT_TRUE(o.prefetch);
  EXPECT_TRUE(o.prefetch_header_map);
  EXPECT_EQ(o.lab_bytes, size_t{32} * 1024);
}

TEST(GcOptionsBuilderTest, PresetBaseCanBeTweaked) {
  const GcOptions base = AllOptimizationsOptions(CollectorKind::kG1, 8);
  const GcOptions o = GcOptionsBuilder(base).HeaderMapBytes(1 << 20).Build();
  EXPECT_EQ(o.header_map_bytes, size_t{1} << 20);
  EXPECT_TRUE(o.use_write_cache);  // Preset fields carried over.
  EXPECT_TRUE(o.use_non_temporal);
}

TEST(GcOptionsBuilderTest, BuildUncheckedIsTheEscapeHatch) {
  const GcOptions o = GcOptionsBuilder().AsyncFlush().BuildUnchecked();
  EXPECT_TRUE(o.async_flush);
  EXPECT_FALSE(o.valid());  // Incoherent, but deliberately not rejected.
}

TEST(GcOptionsDeathTest, BuildDiesOnInvalidCombination) {
  EXPECT_DEATH(GcOptionsBuilder().GcThreads(0).Build(), "NVMGC_CHECK");
  EXPECT_DEATH(GcOptionsBuilder().AsyncFlush().Build(),
               "async_flush requires use_write_cache");
}

TEST(GcOptionsDeathTest, VmConstructorRejectsInvalidOptions) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 64;
  o.heap.dram_cache_regions = 8;
  o.heap.eden_regions = 8;
  o.gc = GcOptionsBuilder().PrefetchHeaderMap().BuildUnchecked();
  EXPECT_DEATH(Vm vm(o), "prefetch_header_map requires use_header_map");
}

TEST(GcOptionsValidateTest, GenerationalPresetAndBuilderAreValid) {
  const GcOptions preset = GenerationalGcOptions(CollectorKind::kG1, 8);
  EXPECT_TRUE(preset.valid());
  EXPECT_TRUE(preset.generational.enabled);
  EXPECT_TRUE(preset.use_write_cache);  // "+all" base under the young gen.
  const GcOptions built = GcOptionsBuilder().Generational().Build();
  EXPECT_TRUE(built.generational.enabled);
  const GcOptions off = GcOptionsBuilder(preset).Generational(false).Build();
  EXPECT_FALSE(off.generational.enabled);
}

TEST(GcOptionsValidateTest, GenerationalOptionsOverload) {
  GenerationalOptions gen;
  gen.enabled = true;
  gen.young_gen_bytes = 8 * 1024 * 1024;
  gen.tenure_threshold = 5;
  gen.large_object_threshold = 16 * 1024;
  const GcOptions o = GcOptionsBuilder().Generational(gen).Build();
  EXPECT_EQ(o.generational.young_gen_bytes, 8u * 1024 * 1024);
  EXPECT_EQ(o.generational.tenure_threshold, 5u);
  EXPECT_EQ(o.generational.large_object_threshold, 16u * 1024);
}

TEST(GcOptionsValidateTest, RejectsGenerationalKnobsWhileDisabled) {
  {
    GcOptions o;
    o.generational.young_gen_bytes = 1024 * 1024;
    ExpectError(o, "generational sub-options are set but generational.enabled is false",
                "Generational()");
  }
  {
    GcOptions o;
    o.generational.tenure_threshold = 7;
    ExpectError(o, "generational sub-options", "Generational()");
  }
}

TEST(GcOptionsValidateTest, RejectsBadTenureThreshold) {
  for (const uint32_t bad : {0u, 16u, 100u}) {
    GcOptions o;
    o.generational.enabled = true;
    o.generational.tenure_threshold = bad;
    ExpectError(o, "generational.tenure_threshold", "tenure_threshold");
  }
}

TEST(GcOptionsValidateTest, RejectsTinyLargeObjectThreshold) {
  GcOptions o;
  o.generational.enabled = true;
  o.generational.large_object_threshold = 512;
  ExpectError(o, "generational.large_object_threshold", "large_object_threshold");
}

TEST(GcOptionsDeathTest, VmRejectsDegenerateYoungGeneration) {
  // One region cannot hold both an eden and a survivor space; the geometry
  // check lives in the Vm constructor because it needs HeapConfig.
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 64;
  o.heap.dram_cache_regions = 8;
  o.heap.eden_regions = 8;
  GenerationalOptions gen;
  gen.enabled = true;
  gen.young_gen_bytes = 64 * 1024;  // Exactly one region.
  o.gc = GcOptionsBuilder(GenerationalGcOptions(CollectorKind::kG1, 4))
             .Generational(gen)
             .Build();
  EXPECT_DEATH(Vm vm(o), "young generation too small");
}

TEST(GcOptionsDeathTest, VmRejectsDurabilityOnDramHeap) {
  // The enabled/device coherence check lives in the Vm constructor because
  // GcOptions cannot see the HeapConfig.
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 64;
  o.heap.dram_cache_regions = 8;
  o.heap.eden_regions = 8;
  o.heap.heap_device = DeviceKind::kDram;
  o.gc = DurableOptions(CollectorKind::kG1, 4);
  EXPECT_DEATH(Vm vm(o), "durability requires NVM-backed tenured regions");
}

TEST(GcOptionsDeathTest, VmRejectsNonPowerOfTwoRegionBytes) {
  // Region lookup shifts by log2(region_bytes), so the Heap the Vm builds
  // rejects any other size with the fix in the message.
  VmOptions o;
  o.heap.region_bytes = 96 * 1024;
  o.heap.heap_regions = 64;
  o.heap.dram_cache_regions = 8;
  o.heap.eden_regions = 8;
  EXPECT_DEATH(Vm vm(o), "region_bytes must be a power of two of at least 4096");
}

}  // namespace
}  // namespace nvmgc
