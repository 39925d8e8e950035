// Tests for the workload layer: profiles, the synthetic-app engine, the
// mini-Spark algorithms, the Cassandra service, and the prefetch microbench.

#include <gtest/gtest.h>

#include <set>

#include "src/heap/heap_verifier.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/prefetch_micro.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/spark.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

VmOptions TestVm(DeviceKind device = DeviceKind::kNvm) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 64;
  o.heap.eden_regions = 64;
  o.heap.heap_device = device;
  o.gc.gc_threads = 4;
  return o;
}

TEST(ProfilesTest, TwentyTwoRenaissanceAndFourSpark) {
  EXPECT_EQ(RenaissanceProfiles().size(), 22u);
  EXPECT_EQ(SparkProfiles().size(), 4u);
  EXPECT_EQ(AllApplicationProfiles().size(), 26u);
}

TEST(ProfilesTest, NamesAreUniqueAndLookupWorks) {
  std::set<std::string> names;
  for (const auto& p : AllApplicationProfiles()) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate profile " << p.name;
    EXPECT_EQ(RenaissanceProfile(p.name).name, p.name);
  }
  EXPECT_TRUE(names.count("akka-uct"));
  EXPECT_TRUE(names.count("page-rank"));
  EXPECT_DEATH(RenaissanceProfile("no-such-app"), "NVMGC_CHECK");
}

TEST(ProfilesTest, ProfilesEncodePaperTraits) {
  const auto nb = RenaissanceProfile("naive-bayes");
  EXPECT_LT(nb.small_object_fraction, 0.5);   // Primitive-array heavy.
  EXPECT_GE(nb.array_bytes_min, 4096u);
  const auto akka = RenaissanceProfile("akka-uct");
  EXPECT_GT(akka.chain_fraction, 0.0);        // Load-imbalanced traversal.
  const auto ml = RenaissanceProfile("movie-lens");
  EXPECT_LT(ml.total_allocation_bytes, RenaissanceProfile("page-rank").total_allocation_bytes);
}

TEST(SyntheticAppTest, RunsToCompletionAndTriggersGc) {
  Vm vm(TestVm());
  WorkloadProfile p = RenaissanceProfile("dotty");
  p.total_allocation_bytes = 16 * 1024 * 1024;
  SyntheticApp app(&vm, p);
  const WorkloadResult r = app.Run();
  EXPECT_GE(r.bytes_allocated, p.total_allocation_bytes);
  EXPECT_GT(r.gc_count, 0u);
  EXPECT_GT(r.gc_ns, 0u);
  EXPECT_EQ(r.total_ns, r.gc_ns + r.app_ns);
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
}

TEST(SyntheticAppTest, DeterministicForSameSeed) {
  WorkloadProfile p = RenaissanceProfile("scrabble");
  p.total_allocation_bytes = 8 * 1024 * 1024;
  GcOptions gc;
  gc.gc_threads = 1;  // Single worker: fully deterministic.
  const WorkloadResult a = RunWorkload(p, TestVm().heap, gc);
  const WorkloadResult b = RunWorkload(p, TestVm().heap, gc);
  EXPECT_EQ(a.total_ns, b.total_ns);
  EXPECT_EQ(a.gc_count, b.gc_count);
}

TEST(SyntheticAppTest, NvmSlowerThanDram) {
  WorkloadProfile p = RenaissanceProfile("scala-stm-bench7");
  p.total_allocation_bytes = 16 * 1024 * 1024;
  GcOptions gc;
  gc.gc_threads = 4;
  const WorkloadResult nvm = RunWorkload(p, TestVm(DeviceKind::kNvm).heap, gc);
  const WorkloadResult dram = RunWorkload(p, TestVm(DeviceKind::kDram).heap, gc);
  EXPECT_GT(nvm.gc_ns, dram.gc_ns * 2);
  EXPECT_GT(nvm.app_ns, dram.app_ns);
}

TEST(SparkTest, PageRankRunsAndSurvivesGc) {
  VmOptions options = TestVm();
  options.heap.eden_regions = 16;  // Small eden: the iterations must GC.
  Vm vm(options);
  SparkConfig config;
  config.vertices = 8000;
  config.iterations = 4;
  const WorkloadResult r = RunPageRank(&vm, config);
  EXPECT_GT(r.gc_count, 0u);
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

TEST(SparkTest, KMeansConvergesWithoutHeapCorruption) {
  Vm vm(TestVm());
  SparkConfig config;
  config.vertices = 4000;
  config.iterations = 4;
  config.clusters = 5;
  const WorkloadResult r = RunKMeans(&vm, config);
  EXPECT_GT(r.total_ns, 0u);
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
}

TEST(SparkTest, ConnectedComponentsAndSssp) {
  Vm vm(TestVm());
  SparkConfig config;
  config.vertices = 2500;
  config.iterations = 3;
  EXPECT_GT(RunConnectedComponents(&vm, config).total_ns, 0u);
  EXPECT_GT(RunSssp(&vm, config).total_ns, 0u);
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
}

TEST(ManagedTableTest, SetGetAcrossSegmentsAndGc) {
  Vm vm(TestVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("T", 0, 8);
  ManagedTable table(&vm, m, 5000, 512);
  std::vector<Address> values(5000);
  for (uint64_t i = 0; i < 5000; i += 7) {
    values[i] = m->Allocate({node});
    table.Set(i, values[i]);
  }
  vm.CollectNow();
  for (uint64_t i = 0; i < 5000; i += 7) {
    const Address v = table.Get(i);
    ASSERT_NE(v, kNullAddress);
    EXPECT_EQ(obj::KlassIdOf(v), node);
  }
}

TEST(CassandraTest, LatencyGrowsWithLoad) {
  VmOptions options = TestVm();
  Vm vm(options);
  CassandraConfig config;
  config.rows = 2000;
  CassandraService service(&vm, config);
  const LatencyResult light = service.RunPhase(5000, 20.0, 0.5);
  const LatencyResult heavy = service.RunPhase(5000, 2000.0, 0.5);
  EXPECT_GT(light.p99_ms, 0.0);
  EXPECT_GT(heavy.p99_ms, light.p99_ms);  // Overload queues requests.
  EXPECT_LE(light.p50_ms, light.p95_ms);
  EXPECT_LE(light.p95_ms, light.p99_ms);
}

TEST(CassandraTest, GcPausesInflateTailNotMedian) {
  VmOptions options = TestVm();
  options.heap.eden_regions = 16;  // Frequent GCs.
  Vm vm(options);
  CassandraConfig config;
  config.rows = 2000;
  CassandraService service(&vm, config);
  const LatencyResult r = service.RunPhase(20000, 50.0, 1.0);
  EXPECT_GT(vm.gc_count(), 0u);
  // Tail dominated by pauses, median by service time.
  EXPECT_GT(r.p99_ms, 4.0 * r.p50_ms);
}

TEST(CassandraTest, CountsPayloadBytesOfRowsAndRequests) {
  Vm vm(TestVm());
  CassandraConfig config;
  config.rows = 2000;
  config.row_bytes = 256;
  CassandraService service(&vm, config);
  EXPECT_EQ(service.bytes_allocated(), 2000u * 256u);
  // A write phase then a read phase: each request allocates a 48-byte
  // request object plus one row.
  service.RunPhase(3000, 50.0, 1.0);
  EXPECT_EQ(service.bytes_allocated(), 2000u * 256u + 3000u * (256u + 48u));
  service.RunPhase(1000, 50.0, 0.0);
  EXPECT_EQ(service.bytes_allocated(), 2000u * 256u + 4000u * (256u + 48u));
}

TEST(PrefetchMicroTest, PrefetchingHelpsNvmMoreThanDram) {
  constexpr uint64_t kAccesses = 200000;
  const double dram_gain = RunPrefetchMicro(DeviceKind::kDram, false, kAccesses).seconds /
                           RunPrefetchMicro(DeviceKind::kDram, true, kAccesses).seconds;
  const double nvm_gain = RunPrefetchMicro(DeviceKind::kNvm, false, kAccesses).seconds /
                          RunPrefetchMicro(DeviceKind::kNvm, true, kAccesses).seconds;
  EXPECT_GT(dram_gain, 1.2);
  EXPECT_GT(nvm_gain, 2.0);
  EXPECT_GT(nvm_gain, dram_gain * 1.5);
}

TEST(PrefetchMicroTest, HitRateIsHigh) {
  const PrefetchMicroResult r = RunPrefetchMicro(DeviceKind::kNvm, true, 100000);
  EXPECT_GT(r.prefetch_hit_rate, 0.9);
}

}  // namespace
}  // namespace nvmgc
