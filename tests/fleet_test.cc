// Tests for the multi-tenant fleet layer: the contention model's tenant share
// curve, per-tenant ledger occupancy and device attribution, the bandwidth
// arbiter, the fleet pause scheduler, tenant-dimensioned observability, and
// the FleetManager end-to-end (including the satellite regression: a shared
// device's aggregate counters must equal the sum of its per-tenant counters).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/fleet/bandwidth_arbiter.h"
#include "src/fleet/fleet_manager.h"
#include "src/fleet/pause_scheduler.h"
#include "src/fleet/qos.h"
#include "src/fleet/tenant_workload.h"
#include "src/nvm/access.h"
#include "src/nvm/bandwidth_ledger.h"
#include "src/nvm/bandwidth_model.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/sim_clock.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/policy/policy_engine.h"
#include "src/policy/policy_signals.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

VmOptions SmallTenantVm() {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 32;
  o.heap.eden_regions = 32;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc.gc_threads = 2;
  o.gc.use_write_cache = true;
  o.gc.use_header_map = true;
  o.gc.header_map_min_threads = 2;
  return o;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- BandwidthModel::TenantShareFraction (satellite: documented curve) ---

TEST(TenantShareTest, SingleTenantAlwaysFullShare) {
  const BandwidthModel model(MakeOptaneProfile());
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.3, 1), 1.0);
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(1.0, 1), 1.0);
}

TEST(TenantShareTest, MatchesDocumentedCurve) {
  const DeviceProfile profile = MakeOptaneProfile();
  const BandwidthModel model(profile);
  const double k = profile.tenant_interference;
  ASSERT_GT(k, 0.0);
  // share(f, T) = min(1, max(f, 1/T)) / (1 + k (T - 1)).
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.5, 2), 0.5 / (1.0 + k));
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.9, 2), 0.9 / (1.0 + k));
  // The 1/T floor: an idle tenant still gets an equal split on demand.
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.0, 2), 0.5 / (1.0 + k));
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(0.1, 4), 0.25 / (1.0 + 3.0 * k));
  // Clamped above at the whole device.
  EXPECT_DOUBLE_EQ(model.TenantShareFraction(1.5, 2), 1.0 / (1.0 + k));
  // More co-tenants always means a smaller share at fixed occupancy.
  EXPECT_GT(model.TenantShareFraction(0.5, 2), model.TenantShareFraction(0.5, 3));
  EXPECT_GT(model.TenantShareFraction(0.5, 3), model.TenantShareFraction(0.5, 4));
}

TEST(TenantShareTest, DramInterferenceIsMilder) {
  const BandwidthModel optane(MakeOptaneProfile());
  const BandwidthModel dram(MakeDramProfile());
  EXPECT_GT(dram.TenantShareFraction(0.5, 2), optane.TenantShareFraction(0.5, 2));
}

// --- BandwidthLedger per-tenant occupancy ---

TEST(BandwidthLedgerTest, TenantOccupancyTracksWindowBytes) {
  BandwidthLedger ledger;
  const uint64_t now = 10 * ledger.bucket_ns();
  ledger.Charge(now, RandomRead(0x100, 1000), /*tenant=*/0);
  ledger.Charge(now, RandomWrite(0x200, 3000), /*tenant=*/1);

  const auto occ0 = ledger.SampleTenantOccupancy(now, 0);
  EXPECT_EQ(occ0.own_bytes, 1000u);
  EXPECT_EQ(occ0.total_bytes, 4000u);
  EXPECT_EQ(occ0.active_tenants, 2u);
  EXPECT_DOUBLE_EQ(occ0.own_fraction(), 0.25);

  // A tenant with no window traffic still counts itself active (it is about
  // to issue the access being costed).
  const auto occ2 = ledger.SampleTenantOccupancy(now, 2);
  EXPECT_EQ(occ2.own_bytes, 0u);
  EXPECT_EQ(occ2.total_bytes, 4000u);
  EXPECT_EQ(occ2.active_tenants, 3u);
  EXPECT_DOUBLE_EQ(occ2.own_fraction(), 0.0);
}

TEST(BandwidthLedgerTest, TenantOccupancyEmptyWindow) {
  BandwidthLedger ledger;
  const auto occ = ledger.SampleTenantOccupancy(5 * ledger.bucket_ns(), 0);
  EXPECT_EQ(occ.total_bytes, 0u);
  EXPECT_EQ(occ.active_tenants, 1u);
  EXPECT_DOUBLE_EQ(occ.own_fraction(), 1.0);  // Alone on an idle device.
}

TEST(BandwidthLedgerTest, TenantOccupancyWindowExpires) {
  BandwidthLedger ledger;
  const uint64_t now = 10 * ledger.bucket_ns();
  ledger.Charge(now, RandomRead(0x100, 4096), /*tenant=*/1);
  // Default sampling window is 3 buckets; 4 buckets later the charge is gone.
  const auto occ = ledger.SampleTenantOccupancy(now + 4 * ledger.bucket_ns(), 0);
  EXPECT_EQ(occ.total_bytes, 0u);
  EXPECT_EQ(occ.active_tenants, 1u);
}

// --- MemoryDevice tenant attribution and contention ---

TEST(MemoryDeviceTenantTest, BindingRangesAttributesTraffic) {
  MemoryDevice dev(MakeOptaneProfile());
  EXPECT_FALSE(dev.multi_tenant());
  dev.BindTenantRange(0, 0x10000, 0x10000);
  EXPECT_FALSE(dev.multi_tenant());  // One tenant is not a fleet.
  dev.BindTenantRange(1, 0x20000, 0x10000);
  EXPECT_TRUE(dev.multi_tenant());

  EXPECT_EQ(dev.TenantFor(0x10000), 0);
  EXPECT_EQ(dev.TenantFor(0x2ffff), 1);
  EXPECT_EQ(dev.TenantFor(0x99999), 0);  // Unbound addresses are tenant 0.

  SimClock clock;
  dev.Access(&clock, SequentialWrite(0x20000, 4096));
  dev.Access(&clock, RandomRead(0x10010, 64));
  EXPECT_EQ(dev.tenant_counters(1).write_bytes, 4096u);
  EXPECT_EQ(dev.tenant_counters(0).read_bytes, 64u);
  EXPECT_EQ(dev.counters().total_bytes(),
            dev.tenant_counters(0).total_bytes() + dev.tenant_counters(1).total_bytes());
}

TEST(MemoryDeviceTenantTest, CoTenantTrafficRaisesCostPerDocumentedCurve) {
  MemoryDevice dev(MakeOptaneProfile());
  dev.BindTenantRange(0, 0x100000, 0x100000);
  dev.BindTenantRange(1, 0x200000, 0x100000);

  const uint64_t now = 10'000'000;
  const AccessDescriptor d = SequentialRead(0x100000, 256 * 1024);
  const uint64_t cost_idle = dev.CostNs(now, d);

  // Co-tenant floods the sampling window with reads (reads keep the mix — and
  // thus the mix-interference term — unchanged, isolating the tenant share).
  SimClock co_clock;
  co_clock.SetTime(now);
  for (int i = 0; i < 4; ++i) {
    dev.Access(&co_clock, SequentialRead(0x200000, 1 << 20));
    co_clock.SetTime(now);
  }
  const uint64_t cost_contended = dev.CostNs(now, d);
  EXPECT_GT(cost_contended, cost_idle);

  // The charged cost must match the documented model exactly:
  // latency + bytes / (per-thread share x pattern x tenant share).
  const DeviceProfile& p = dev.profile();
  const MixState mix = dev.CurrentMix(now);
  const auto occ = dev.ledger().SampleTenantOccupancy(now, 0);
  EXPECT_EQ(occ.active_tenants, 2u);
  EXPECT_EQ(occ.own_bytes, 0u);
  double share_mbps = dev.model().TotalBandwidthMbps(mix) /
                      static_cast<double>(mix.active_threads) *
                      dev.model().PatternFraction(AccessOp::kRead, AccessPattern::kSequential);
  share_mbps *= dev.model().TenantShareFraction(occ.own_fraction(), occ.active_tenants);
  share_mbps = std::max(1.0, share_mbps);
  const double latency_ns = p.sequential_line_ns * static_cast<double>((d.bytes + 63) / 64);
  const uint64_t expected =
      static_cast<uint64_t>(latency_ns + static_cast<double>(d.bytes) * 1000.0 / share_mbps + 0.5);
  EXPECT_EQ(cost_contended, expected);

  // The busy tenant holds the occupancy, so its own accesses stay cheaper
  // than the idle tenant's equal-split floor.
  EXPECT_LT(dev.CostNs(now, SequentialRead(0x200000, 256 * 1024)), cost_contended);
}

TEST(MemoryDeviceTenantTest, SingleBoundTenantCostsMatchUnboundDevice) {
  // The contention term must never perturb a device that is not actually
  // shared — single-Vm benches depend on bit-identical costs.
  MemoryDevice unbound(MakeOptaneProfile());
  MemoryDevice bound(MakeOptaneProfile());
  bound.BindTenantRange(0, 0x100000, 0x100000);
  MemoryDevice same_tenant_twice(MakeOptaneProfile());
  same_tenant_twice.BindTenantRange(2, 0x100000, 0x80000);
  same_tenant_twice.BindTenantRange(2, 0x180000, 0x80000);
  EXPECT_FALSE(bound.multi_tenant());
  EXPECT_FALSE(same_tenant_twice.multi_tenant());

  SimClock c1, c2, c3;
  for (int i = 0; i < 8; ++i) {
    const AccessDescriptor w = SequentialWrite(0x100000 + 4096 * i, 4096);
    const AccessDescriptor r = RandomRead(0x100000 + 64 * i, 64);
    EXPECT_EQ(unbound.Access(&c1, w), bound.Access(&c2, w));
    EXPECT_EQ(unbound.Access(&c1, r), bound.Access(&c2, r));
    same_tenant_twice.Access(&c3, w);
    same_tenant_twice.Access(&c3, r);
  }
  EXPECT_EQ(c1.now_ns(), c2.now_ns());
  EXPECT_EQ(c1.now_ns(), c3.now_ns());
}

// --- BandwidthArbiter ---

TEST(BandwidthArbiterTest, ServingIsNeverThrottled) {
  BandwidthArbiter arb;
  const uint32_t serving = arb.AddTenant(QosTier::kServing, 100.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 100.0);
  const auto stalls = arb.EndWindow({10'000'000, 10'000'000});
  EXPECT_EQ(stalls[serving], 0u);
  EXPECT_GT(stalls[batch], 0u);
  EXPECT_EQ(arb.stats(serving).windows_throttled, 0u);
  EXPECT_EQ(arb.stats(batch).windows_throttled, 1u);
}

TEST(BandwidthArbiterTest, NoThrottleWithoutHigherTierDemand) {
  BandwidthArbiter arb;
  arb.AddTenant(QosTier::kServing, 100.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 100.0);
  // Serving idle this window: throttling batch would only idle the device.
  const auto stalls = arb.EndWindow({0, 10'000'000});
  EXPECT_EQ(stalls[batch], 0u);
}

TEST(BandwidthArbiterTest, StallEqualsOvershootAtBudgetRate) {
  BandwidthArbiter arb;
  arb.AddTenant(QosTier::kServing, 500.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 100.0);
  const uint32_t background = arb.AddTenant(QosTier::kBackground, 100.0);
  // Budget at 100 MB/s over a 1 ms window = 100'000 bytes; kGrace 1.10 puts
  // the throttle threshold at 110'000. 210'000 bytes overshoots by 100'000,
  // which takes 1 ms to move legitimately at 100 MB/s.
  EXPECT_EQ(arb.BudgetBytesPerWindow(batch), 100'000u);
  const auto stalls = arb.EndWindow({1000, 210'000, 210'000});
  EXPECT_EQ(stalls[batch], 1'000'000u);
  // Background pays the kBackgroundPenalty multiple on the same overshoot.
  EXPECT_EQ(stalls[background], 2'000'000u);
}

TEST(BandwidthArbiterTest, StallIsClamped) {
  BandwidthArbiter arb;
  arb.AddTenant(QosTier::kServing, 500.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 1.0);
  const auto stalls = arb.EndWindow({1000, 1'000'000'000});
  EXPECT_EQ(stalls[batch], 8'000'000u);  // kMaxStallWindows x kWindowNs.
}

TEST(BandwidthArbiterTest, UnbudgetedTenantIsExempt) {
  BandwidthArbiter arb;
  arb.AddTenant(QosTier::kServing, 500.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 0.0);
  const auto stalls = arb.EndWindow({1000, 1'000'000'000});
  EXPECT_EQ(stalls[batch], 0u);
}

TEST(BandwidthArbiterTest, StatsAccumulate) {
  BandwidthArbiter arb;
  arb.AddTenant(QosTier::kServing, 500.0);
  const uint32_t batch = arb.AddTenant(QosTier::kBatch, 100.0);
  arb.EndWindow({1000, 210'000});
  arb.EndWindow({1000, 210'000});
  arb.EndWindow({1000, 50'000});
  EXPECT_EQ(arb.stats(batch).windows_throttled, 2u);
  EXPECT_EQ(arb.stats(batch).total_stall_ns, 2'000'000u);
}

// --- FleetPauseScheduler ---

TEST(PauseSchedulerTest, MajorDefersOutOfCoTenantDrain) {
  FleetPauseScheduler sched;
  // Tenant 0's pause [1.0ms, 1.5ms) ended with a 200us write-back drain:
  // drain window [1.3ms, 1.5ms).
  sched.OnPauseFinished(0, 1'000'000, 1'500'000, 200'000);

  // Inside the drain: defer to its end.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 1'350'000), 150'000u);
  // Just ahead of the drain, within the leading margin: also defer.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 1'250'000), 250'000u);
  // Clear of the margin: no deferral.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 1'150'000), 0u);
  // Past the drain: no deferral.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 1'500'000), 0u);
  // A tenant never defers for its own drain window.
  EXPECT_EQ(sched.DeferNs(0, GcKind::kMajor, 1'350'000), 0u);
  // Minor pauses are never deferred.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMinor, 1'350'000), 0u);
}

TEST(PauseSchedulerTest, DeferralIsBounded) {
  FleetPauseScheduler sched;
  sched.OnPauseFinished(0, 10'000'000, 20'000'000, 9'000'000);
  // 8.5 ms of drain remain, but deferral is capped: the requesting tenant's
  // heap is near exhaustion, so the pause is delayed, never denied.
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 11'500'000), FleetPauseScheduler::kMaxDeferNs);
}

TEST(PauseSchedulerTest, ZeroWritebackLeavesNoWindow) {
  FleetPauseScheduler sched;
  sched.OnPauseFinished(0, 1'000'000, 1'500'000, 0);
  EXPECT_EQ(sched.DeferNs(1, GcKind::kMajor, 1'400'000), 0u);
}

// --- Flight recorder tenant tagging (satellite) ---

TEST(FlightRecorderTenantTest, IncidentFilesCarryTenantTag) {
  FlightRecorderOptions options;
  options.tenant = "cass";
  FlightRecorder fr(options);
  FlightPauseRecord record;
  record.pause_id = 0;
  record.stats.pause_ns = 12345;
  fr.RecordPause(std::move(record));

  const std::string dir = ::testing::TempDir() + "/fr_tenant_tag";
  std::filesystem::create_directories(dir);
  const std::string path = fr.Dump(FrTrigger::kExplicit, dir);
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("incident-cass-"), std::string::npos);
  const std::string body = ReadFile(path);
  EXPECT_NE(body.find("\"tenant\""), std::string::npos);
  EXPECT_NE(body.find("cass"), std::string::npos);
}

// --- Shared-device Vms ---

TEST(SharedDeviceVmTest, InterleavedVmsKeepCounterSumInvariant) {
  // The satellite regression: with two Vms interleaving traffic on one
  // device, the aggregate ledger must equal the sum of per-tenant ledgers.
  MemoryDevice device(MakeOptaneProfile());

  VmOptions a = SmallTenantVm();
  a.shared_heap_device = &device;
  a.tenant_id = 0;
  VmOptions b = SmallTenantVm();
  b.shared_heap_device = &device;
  b.tenant_id = 1;

  Vm vm_a(a);
  Vm vm_b(b);
  EXPECT_TRUE(device.multi_tenant());

  Mutator* ma = vm_a.CreateMutator();
  Mutator* mb = vm_b.CreateMutator();
  const KlassId ka = vm_a.heap().klasses().RegisterByteArray("A");
  const KlassId kb = vm_b.heap().klasses().RegisterByteArray("B");
  for (int i = 0; i < 2000; ++i) {
    ma->WritePayload(ma->Allocate({ka, 512}), 512);
    mb->WritePayload(mb->Allocate({kb, 2048}), 2048);
  }
  vm_a.CollectNow();
  vm_b.CollectNow();

  const DeviceCounters total = device.counters();
  DeviceCounters sum;
  for (uint32_t t = 0; t < MemoryDevice::kMaxTenants; ++t) {
    const DeviceCounters tc = device.tenant_counters(static_cast<uint8_t>(t));
    sum.read_bytes += tc.read_bytes;
    sum.write_bytes += tc.write_bytes;
    sum.nt_write_bytes += tc.nt_write_bytes;
    sum.read_ops += tc.read_ops;
    sum.write_ops += tc.write_ops;
  }
  EXPECT_EQ(total.read_bytes, sum.read_bytes);
  EXPECT_EQ(total.write_bytes, sum.write_bytes);
  EXPECT_EQ(total.nt_write_bytes, sum.nt_write_bytes);
  EXPECT_EQ(total.read_ops, sum.read_ops);
  EXPECT_EQ(total.write_ops, sum.write_ops);
  // Both tenants actually contributed.
  EXPECT_GT(device.tenant_counters(0).total_bytes(), 0u);
  EXPECT_GT(device.tenant_counters(1).total_bytes(), 0u);
}

TEST(SharedDeviceVmTest, FlightRecorderTenantAutoFilled) {
  MemoryDevice device(MakeOptaneProfile());
  VmOptions o = SmallTenantVm();
  o.shared_heap_device = &device;
  o.tenant_id = 1;
  Vm vm(o);
  EXPECT_EQ(vm.flight_recorder().options().tenant, "t1");

  VmOptions labeled = SmallTenantVm();
  labeled.shared_heap_device = &device;
  labeled.tenant_id = 2;
  labeled.tenant_label = "cassandra";
  Vm vm2(labeled);
  EXPECT_EQ(vm2.flight_recorder().options().tenant, "cassandra");
}

// --- FleetManager end-to-end ---

// The coordinated serving + batch + background fleet of bench_fleet, at test
// size. The manager is neither copyable nor movable, so the run lives on the
// heap.
struct MixedFleet {
  FleetManager fleet{FleetOptions{}};
  ServingConfig sc;
  BatchConfig bc;
  BackgroundConfig gc_cfg;
  ServingDriver* serving = nullptr;
  BatchDriver* batch = nullptr;
  BackgroundDriver* background = nullptr;
};

std::unique_ptr<MixedFleet> RunMixedFleet(bool adaptive) {
  auto mixed = std::make_unique<MixedFleet>();
  FleetManager& fleet = mixed->fleet;
  VmOptions vm = SmallTenantVm();
  vm.gc.adaptive_policy = adaptive;
  const uint32_t s = fleet.AddTenant({"serving", QosTier::kServing, 800.0, vm});
  const uint32_t b = fleet.AddTenant({"batch", QosTier::kBatch, 300.0, vm});
  const uint32_t g = fleet.AddTenant({"background", QosTier::kBackground, 150.0, vm});

  mixed->sc.rows = 2048;
  mixed->sc.row_bytes = 128;
  mixed->sc.total_requests = 4000;
  mixed->sc.offered_kqps = 80.0;
  auto serving_driver = std::make_unique<ServingDriver>(&fleet.vm(s), mixed->sc);
  mixed->serving = serving_driver.get();

  mixed->bc.rows = 4096;
  mixed->bc.row_bytes = 256;
  mixed->bc.total_tasks = 60;
  auto batch_driver = std::make_unique<BatchDriver>(&fleet.vm(b), mixed->bc);
  mixed->batch = batch_driver.get();

  mixed->gc_cfg.total_allocation_bytes = 6 * 1024 * 1024;
  mixed->gc_cfg.live_window_bytes = 512 * 1024;
  auto background_driver = std::make_unique<BackgroundDriver>(&fleet.vm(g), mixed->gc_cfg);
  mixed->background = background_driver.get();

  fleet.SetDriver(s, std::move(serving_driver));
  fleet.SetDriver(b, std::move(batch_driver));
  fleet.SetDriver(g, std::move(background_driver));
  fleet.Run();
  return mixed;
}

TEST(FleetManagerTest, MixedFleetRunsWithPerTenantObservability) {
  const std::unique_ptr<MixedFleet> mixed = RunMixedFleet(/*adaptive=*/false);
  const FleetManager& fleet = mixed->fleet;
  ASSERT_EQ(fleet.tenant_count(), 3u);

  EXPECT_EQ(mixed->serving->served(), mixed->sc.total_requests);
  EXPECT_EQ(mixed->batch->tasks_done(), mixed->bc.total_tasks);
  EXPECT_GE(mixed->background->allocated_bytes(), mixed->gc_cfg.total_allocation_bytes);
  EXPECT_TRUE(mixed->fleet.device().multi_tenant());

  // Each tenant's numbers live in its own Vm and in its device attribution.
  EXPECT_EQ(fleet.vm(0).metrics().Summary("serving.op_latency_ns").count,
            mixed->sc.total_requests);
  EXPECT_GT(mixed->fleet.device().tenant_counters(2).total_bytes(), 0u);
  // The background tenant churned 6 MB through a 2 MB eden: it must have
  // collected, and its pauses are in its own registry.
  EXPECT_GT(fleet.vm(2).gc_count(), 0u);
  EXPECT_GT(fleet.vm(2).metrics().counter("gc.pause_ns"), 0u);
}

TEST(FleetManagerTest, EachFleetNumberHasOneOwner) {
  const std::unique_ptr<MixedFleet> mixed = RunMixedFleet(/*adaptive=*/true);
  const FleetManager& fleet = mixed->fleet;

  // Throttle stalls and pause deferrals are counted by the arbiter and the
  // manager; policy decisions by the policy.decisions_total gauge; recorded
  // pauses and triggers by the flight recorder and fr.trigger.<kind>. No
  // tenant registry mirrors them.
  uint64_t vm_stall_ns = 0;
  uint64_t arbiter_stall_ns = 0;
  for (uint32_t id = 0; id < fleet.tenant_count(); ++id) {
    const MetricsRegistry& m = fleet.vm(id).metrics();
    for (const auto& [name, value] : m.counters()) {
      EXPECT_NE(name.rfind("fleet.", 0), 0u) << "tenant " << id << " counts " << name;
    }
    for (const char* name : {"policy.decisions", "fr.pauses_recorded", "fr.triggers"}) {
      EXPECT_EQ(m.counters().count(name), 0u) << "tenant " << id << " counts " << name;
    }
    EXPECT_EQ(m.gauges().count("policy.decisions_total"), 1u) << "tenant " << id;
    EXPECT_EQ(fleet.vm(id).flight_recorder().pauses_recorded(), fleet.vm(id).gc_count());
    vm_stall_ns += fleet.vm(id).fleet_stall_ns();
    arbiter_stall_ns += fleet.arbiter().stats(id).total_stall_ns;
  }
  EXPECT_GT(arbiter_stall_ns, 0u);
  EXPECT_EQ(vm_stall_ns, arbiter_stall_ns);

  // The serving latency digest is the serving Vm's histogram.
  const HistogramSummary served = mixed->serving->LatencySummary();
  const HistogramSummary recorded = fleet.vm(0).metrics().Summary("serving.op_latency_ns");
  EXPECT_EQ(served.count, mixed->sc.total_requests);
  EXPECT_EQ(served.count, recorded.count);
  EXPECT_EQ(served.p50, recorded.p50);
  EXPECT_EQ(served.p95, recorded.p95);
  EXPECT_EQ(served.p99, recorded.p99);
  EXPECT_EQ(served.max, recorded.max);
  EXPECT_DOUBLE_EQ(served.mean, recorded.mean);
}

TEST(FleetManagerTest, ArbitrationRestoresStarvedServingTenant) {
  // The satellite integration test: a background bandwidth hog starves a
  // serving tenant; the arbiter throttles the hog back to its budget and the
  // serving tenant's latency recovers relative to the uncoordinated fleet.
  auto run_fleet = [](bool coordinated, HistogramSummary* serving_latency,
                      uint64_t* hog_throttled_windows) {
    FleetOptions options;
    options.arbitration = coordinated;
    options.pause_coordination = coordinated;

    FleetManager fleet(options);
    FleetTenantSpec serving;
    serving.name = "serving";
    serving.tier = QosTier::kServing;
    serving.bandwidth_budget_mbps = 500.0;
    serving.vm = SmallTenantVm();
    FleetTenantSpec hog;
    hog.name = "hog";
    hog.tier = QosTier::kBackground;
    hog.bandwidth_budget_mbps = 120.0;
    hog.vm = SmallTenantVm();
    const uint32_t s = fleet.AddTenant(serving);
    const uint32_t h = fleet.AddTenant(hog);

    ServingConfig sc;
    sc.rows = 2048;
    sc.row_bytes = 128;
    sc.total_requests = 6000;
    sc.offered_kqps = 120.0;
    auto serving_driver = std::make_unique<ServingDriver>(&fleet.vm(s), sc);
    ServingDriver* serving_ptr = serving_driver.get();

    BackgroundConfig hc;
    hc.total_allocation_bytes = 16 * 1024 * 1024;
    hc.allocs_per_step = 256;
    hc.touches_per_alloc = 1.0;
    hc.live_window_bytes = 1024 * 1024;
    auto hog_driver = std::make_unique<BackgroundDriver>(&fleet.vm(h), hc);

    fleet.SetDriver(s, std::move(serving_driver));
    fleet.SetDriver(h, std::move(hog_driver));
    fleet.Run();

    *serving_latency = serving_ptr->LatencySummary();
    *hog_throttled_windows = fleet.arbiter().stats(h).windows_throttled;
  };

  HistogramSummary coordinated_latency, uncoordinated_latency;
  uint64_t coordinated_throttles = 0, uncoordinated_throttles = 0;
  run_fleet(true, &coordinated_latency, &coordinated_throttles);
  run_fleet(false, &uncoordinated_latency, &uncoordinated_throttles);

  ASSERT_EQ(coordinated_latency.count, 6000u);
  ASSERT_EQ(uncoordinated_latency.count, 6000u);
  EXPECT_GT(coordinated_throttles, 0u);   // The hog actually got throttled.
  EXPECT_EQ(uncoordinated_throttles, 0u);  // Baseline never arbitrates.
  // Throttling the hog gives the serving tenant its bandwidth back.
  EXPECT_LT(coordinated_latency.mean, uncoordinated_latency.mean);
  EXPECT_LE(coordinated_latency.p99, uncoordinated_latency.p99);
}

// --- Fleet throttle feedback into the adaptive policy engine ---

// A pause that triggers no other rule (cache half full, no device-bound read
// phase), with an injected fleet stall / interval pair.
PolicySignals ThrottledPauseSignals(uint64_t pause_id, const PolicyEngine& engine,
                                    uint64_t stall_ns, uint64_t interval_ns) {
  PolicySignals s;
  s.pause_id = pause_id;
  s.cycle.pause_ns = 1'000'000;
  s.cycle.read_phase_ns = 800'000;
  s.cycle.writeback_phase_ns = 200'000;
  s.cycle.bytes_copied = 4 * 1024 * 1024;
  s.cycle.objects_copied = 1000;
  s.cycle.refs_processed = 3000;
  s.cycle.cache_bytes_staged = engine.tuning().write_cache_capacity_bytes / 2;
  s.fleet_stall_ns = stall_ns;
  s.fleet_interval_ns = interval_ns;
  return s;
}

TEST(FleetPolicyTest, SustainedThrottleShedsGcThreads) {
  const GcOptions options = AdaptiveOptions(CollectorKind::kG1, 8);
  PolicyEngine engine(options, 64 * 1024 * 1024, 24 * 1024 * 1024, MakeOptaneProfile());
  uint64_t pause = 1;
  for (uint32_t i = 0; i < PolicyEngine::kWarmupPauses; ++i, ++pause) {
    ASSERT_EQ(engine.OnPauseEnd(ThrottledPauseSignals(pause, engine, 0, 1'000'000)), 0u);
  }
  const uint32_t before = engine.tuning().active_gc_threads;

  // 20% of the interval stalled: under the 25% bar, no decision.
  EXPECT_EQ(engine.OnPauseEnd(ThrottledPauseSignals(pause++, engine, 200'000, 1'000'000)), 0u);
  EXPECT_EQ(engine.tuning().active_gc_threads, before);

  // 40% stalled: the tenant sheds copy parallelism.
  EXPECT_EQ(engine.OnPauseEnd(ThrottledPauseSignals(pause++, engine, 400'000, 1'000'000)), 1u);
  EXPECT_LT(engine.tuning().active_gc_threads, before);
  ASSERT_FALSE(engine.decisions().empty());
  const PolicyDecision& d = engine.decisions().back();
  EXPECT_EQ(d.knob, PolicyKnob::kGcThreads);
  EXPECT_NE(d.reason.find("fleet"), std::string::npos);

  // Cooldown paces further shrinks: the very next throttled pause holds the
  // thread count (other knobs may cascade, e.g. the header-map gate).
  const uint32_t after = engine.tuning().active_gc_threads;
  engine.OnPauseEnd(ThrottledPauseSignals(pause++, engine, 400'000, 1'000'000));
  EXPECT_EQ(engine.tuning().active_gc_threads, after);

  // A stall with no interval (first-pause edge) divides to zero, not NaN.
  PolicySignals edge = ThrottledPauseSignals(pause, engine, 400'000, 0);
  EXPECT_EQ(edge.fleet_stall_fraction(), 0.0);
}

TEST(FleetPolicyTest, FleetManagerFeedsStallSignalToTenantVms) {
  // End-to-end wiring: a throttled tenant's Vm accumulates the stall the
  // arbiter injected (what CollectNow hands PolicySignals).
  FleetOptions options;
  options.arbitration = true;
  options.pause_coordination = false;
  FleetManager fleet(options);

  FleetTenantSpec serving;
  serving.name = "svc";
  serving.tier = QosTier::kServing;
  serving.bandwidth_budget_mbps = 500.0;
  serving.vm = SmallTenantVm();
  FleetTenantSpec hog;
  hog.name = "hog";
  hog.tier = QosTier::kBackground;
  hog.bandwidth_budget_mbps = 120.0;
  hog.vm = SmallTenantVm();
  const uint32_t s = fleet.AddTenant(serving);
  const uint32_t g = fleet.AddTenant(hog);

  ServingConfig sc;
  sc.rows = 2048;
  sc.row_bytes = 128;
  sc.total_requests = 6000;
  sc.offered_kqps = 120.0;
  fleet.SetDriver(s, std::make_unique<ServingDriver>(&fleet.vm(s), sc));
  BackgroundConfig bc;
  bc.total_allocation_bytes = 16 * 1024 * 1024;
  bc.allocs_per_step = 256;
  bc.touches_per_alloc = 1.0;
  bc.live_window_bytes = 1024 * 1024;
  fleet.SetDriver(g, std::make_unique<BackgroundDriver>(&fleet.vm(g), bc));
  fleet.Run();

  ASSERT_GT(fleet.arbiter().stats(g).total_stall_ns, 0u);
  EXPECT_EQ(fleet.vm(g).fleet_stall_ns(), fleet.arbiter().stats(g).total_stall_ns);
  EXPECT_EQ(fleet.vm(s).fleet_stall_ns(), 0u);  // Serving is never throttled.
}

}  // namespace
}  // namespace nvmgc
