// Tests for the GC flight recorder and the allocation-site lifetime profiler
// (src/obs/flight_recorder.h, src/obs/alloc_site.h): trigger evaluation and
// priority, ring-buffer bounds, incident dump files, the birth/survival/death
// bookkeeping of the site profiler, the end-to-end Vm wiring (site tags ride
// the mark word through evacuation), and the crash-injector arming.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/alloc_site.h"
#include "src/obs/flight_recorder.h"
#include "src/recovery/crash_injector.h"
#include "src/runtime/gc_report.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

// --- AllocSiteProfiler ---

TEST(AllocSiteProfilerTest, RegisterDedupsAndCaps) {
  AllocSiteProfiler p;
  EXPECT_EQ(p.site_count(), 1u);  // Site 0 "(untagged)" always exists.
  const AllocSiteId a = p.RegisterSite("app.node");
  const AllocSiteId b = p.RegisterSite("app.array");
  EXPECT_NE(a, kUntaggedSite);
  EXPECT_NE(b, a);
  EXPECT_EQ(p.RegisterSite("app.node"), a);  // Dedup by name.
  for (size_t i = p.site_count(); i < AllocSiteProfiler::kMaxSites; ++i) {
    EXPECT_NE(p.RegisterSite("filler." + std::to_string(i)), kUntaggedSite);
  }
  // Table full: further registrations degrade to the untagged site.
  EXPECT_EQ(p.RegisterSite("one.too.many"), kUntaggedSite);
  EXPECT_EQ(p.site_count(), AllocSiteProfiler::kMaxSites);
}

TEST(AllocSiteProfilerTest, InfersDeathsFromBirthsMinusSurvivals) {
  AllocSiteProfiler p;
  const AllocSiteId site = p.RegisterSite("app.node");
  for (int i = 0; i < 10; ++i) {
    p.OnBirth(site, 100);
  }
  // Pause 1: 4 of the 10 age-0 objects get copied, 1 of those tenures.
  std::vector<SiteWorkerDelta> merged(p.site_count());
  merged[site].copied_objects[0] = 4;
  merged[site].copied_bytes[0] = 400;
  merged[site].promoted_objects[0] = 1;
  merged[site].promoted_bytes[0] = 100;
  merged[site].nvm_copy_bytes = 150;
  p.OnCycleEnd(merged, /*is_major=*/false);

  const SiteStats& s = p.sites()[site];
  EXPECT_EQ(s.allocated_objects, 10u);
  EXPECT_EQ(s.allocated_bytes, 1000u);
  EXPECT_EQ(s.survived_objects, 4u);
  EXPECT_EQ(s.promoted_objects, 1u);
  EXPECT_EQ(s.died_objects, 6u);  // 10 born - 4 copied.
  EXPECT_EQ(s.died_bytes, 600u);
  EXPECT_EQ(s.lifetime.count(), 6u);
  EXPECT_EQ(s.lifetime.max(), 0u);  // All deaths at age 0.
  // Survivors that did not tenure aged up to 1; the promoted one went old.
  EXPECT_EQ(s.pop_objects[0], 0u);
  EXPECT_EQ(s.pop_objects[1], 3u);
  EXPECT_EQ(s.old_pop_objects, 1u);
  EXPECT_DOUBLE_EQ(s.TenuringRate(), 100.0 / 1000.0);
  EXPECT_DOUBLE_EQ(s.NvmWriteAmplification(), 150.0 / 1000.0);

  // The per-pause digest carries the same numbers.
  ASSERT_EQ(p.last_cycle().size(), 1u);
  const SitePauseDelta& d = p.last_cycle()[0];
  EXPECT_EQ(d.site, site);
  EXPECT_EQ(d.name, "app.node");
  EXPECT_EQ(d.survived_objects, 4u);
  EXPECT_EQ(d.died_objects, 6u);
  EXPECT_EQ(d.nvm_copy_bytes, 150u);

  // Pause 2: 2 of the 3 age-1 survivors copied again; 1 died at age 1.
  std::vector<SiteWorkerDelta> merged2(p.site_count());
  merged2[site].copied_objects[1] = 2;
  merged2[site].copied_bytes[1] = 200;
  p.OnCycleEnd(merged2, /*is_major=*/false);
  EXPECT_EQ(p.sites()[site].died_objects, 7u);
  EXPECT_EQ(p.sites()[site].pop_objects[2], 2u);
  EXPECT_EQ(p.sites()[site].lifetime.max(), 1u);
}

TEST(AllocSiteProfilerTest, MajorCycleSettlesTenuredDeathsAtSentinelAge) {
  AllocSiteProfiler p;
  const AllocSiteId site = p.RegisterSite("app.cache");
  for (int i = 0; i < 4; ++i) {
    p.OnBirth(site, 64);
  }
  std::vector<SiteWorkerDelta> minor(p.site_count());
  minor[site].copied_objects[0] = 4;
  minor[site].copied_bytes[0] = 256;
  minor[site].promoted_objects[0] = 4;
  minor[site].promoted_bytes[0] = 256;
  p.OnCycleEnd(minor, /*is_major=*/false);
  ASSERT_EQ(p.sites()[site].old_pop_objects, 4u);

  // Major recompacts only 1 of the 4 tenured objects: 3 died after tenuring.
  std::vector<SiteWorkerDelta> major(p.site_count());
  major[site].old_copy_objects = 1;
  major[site].old_copy_bytes = 64;
  p.OnCycleEnd(major, /*is_major=*/true);
  const SiteStats& s = p.sites()[site];
  EXPECT_EQ(s.died_objects, 3u);
  EXPECT_EQ(s.old_pop_objects, 1u);
  EXPECT_EQ(s.lifetime.max(), kDiedTenuredAge);
}

TEST(AllocSiteProfilerTest, LargeAllocationsNeverJoinTheCopiedPopulation) {
  AllocSiteProfiler p;
  const AllocSiteId site = p.RegisterSite("app.blob");
  p.OnLargeAlloc(site, 1 << 20);
  EXPECT_EQ(p.sites()[site].large_objects, 1u);
  EXPECT_EQ(p.sites()[site].pop_objects[0], 0u);
  // A pause that copies nothing must not infer a death for the large object.
  p.OnCycleEnd(std::vector<SiteWorkerDelta>(p.site_count()), false);
  EXPECT_EQ(p.sites()[site].died_objects, 0u);
}

// --- FlightRecorder triggers and retention ---

FlightPauseRecord MakePause(uint64_t id, uint64_t pause_ns) {
  FlightPauseRecord r;
  r.pause_id = id;
  r.stats.start_ns = id * 10000;
  r.stats.pause_ns = pause_ns;
  r.stats.read_phase_ns = pause_ns / 2;
  r.stats.writeback_phase_ns = pause_ns - pause_ns / 2;
  return r;
}

TEST(FlightRecorderTest, RingRetainsOnlyTheLastNPauses) {
  FlightRecorder fr(FlightRecorderOptions{});
  constexpr uint64_t kRecorded = FlightRecorder::kRetainPauses + 6;
  for (uint64_t i = 0; i < kRecorded; ++i) {
    fr.RecordPause(MakePause(i, 100));
  }
  EXPECT_EQ(fr.pauses_recorded(), kRecorded);
  ASSERT_EQ(fr.pauses().size(), FlightRecorder::kRetainPauses);
  EXPECT_EQ(fr.pauses().front().pause_id, 6u);
  EXPECT_EQ(fr.pauses().back().pause_id, kRecorded - 1);
}

TEST(FlightRecorderTest, DisabledRecorderIsANoOp) {
  FlightRecorderOptions o;
  o.enabled = false;
  o.pause_threshold_ns = 1;
  FlightRecorder fr(o);
  EXPECT_EQ(fr.RecordPause(MakePause(0, 1000)), FrTrigger::kNone);
  EXPECT_EQ(fr.pauses_recorded(), 0u);
  EXPECT_EQ(fr.Dump(FrTrigger::kExplicit, testing::TempDir()), "");
}

TEST(FlightRecorderTest, PauseThresholdTriggerFires) {
  FlightRecorderOptions o;
  o.pause_threshold_ns = 1000;
  FlightRecorder fr(o);
  EXPECT_EQ(fr.RecordPause(MakePause(0, 999)), FrTrigger::kNone);
  EXPECT_EQ(fr.RecordPause(MakePause(1, 2000)), FrTrigger::kPauseThreshold);
  EXPECT_EQ(fr.last_trigger().pause_id, 1u);
  EXPECT_EQ(fr.last_trigger().observed_ns, 2000u);
  EXPECT_EQ(fr.last_trigger().threshold_ns, 1000u);
}

TEST(FlightRecorderTest, P99OutlierNeedsHistoryAndExcludesItself) {
  FlightRecorderOptions o;  // pause_threshold_ns=0: only the relative trigger.
  FlightRecorder fr(o);
  // One early outlier cannot fire: the window is shorter than kP99MinHistory.
  EXPECT_EQ(fr.RecordPause(MakePause(0, 100000)), FrTrigger::kNone);
  for (uint64_t i = 1; i <= FlightRecorder::kP99MinHistory; ++i) {
    EXPECT_EQ(fr.RecordPause(MakePause(i, 100)), FrTrigger::kNone);
  }
  // The early outlier has aged into the p99 of a 17-deep window at index 15 —
  // still 100000 at p99? nth index (17-1)*99/100 = 15 -> 100000 only if it is
  // the max; so push enough cheap pauses to flush it out of p99 first.
  for (uint64_t i = 0; i < 120; ++i) {
    fr.RecordPause(MakePause(100 + i, 100));
  }
  EXPECT_EQ(fr.TrailingP99(), 100u);
  // Now 1000 > 3.0 * 100: fires. The pause is judged against the window
  // *before* it was added, so a single spike cannot raise its own bar.
  EXPECT_EQ(fr.RecordPause(MakePause(999, 1000)), FrTrigger::kP99Outlier);
  EXPECT_EQ(fr.last_trigger().threshold_ns, 300u);
}

TEST(FlightRecorderTest, StateTriggersAndPriority) {
  FlightRecorderOptions o;
  o.pause_threshold_ns = 10000;
  FlightRecorder fr(o);

  FlightPauseRecord degraded = MakePause(0, 100);
  degraded.stats.degraded_mode = 1;
  EXPECT_EQ(fr.RecordPause(std::move(degraded)), FrTrigger::kDegraded);

  // A pause whose decisions include a retreat fires the retreat trigger.
  FlightPauseRecord retreat = MakePause(1, 100);
  PolicyDecision d;
  d.retreat = true;
  d.reason = "fence stall";
  retreat.decisions.push_back(d);
  EXPECT_EQ(fr.RecordPause(std::move(retreat)), FrTrigger::kRetreat);
  EXPECT_NE(fr.last_trigger().detail.find("fence stall"), std::string::npos);

  FlightPauseRecord overflow = MakePause(2, 100);
  overflow.stats.survivor_overflow_bytes = 4096;
  EXPECT_EQ(fr.RecordPause(std::move(overflow)), FrTrigger::kSurvivorOverflow);
  // observed_ns is the pause duration for every trigger; the overflow bytes
  // go in the detail.
  EXPECT_EQ(fr.last_trigger().observed_ns, 100u);
  EXPECT_NE(fr.last_trigger().detail.find("4096 bytes"), std::string::npos);

  // Absolute threshold outranks the state triggers.
  FlightPauseRecord both = MakePause(3, 20000);
  both.stats.degraded_mode = 1;
  EXPECT_EQ(fr.RecordPause(std::move(both)), FrTrigger::kPauseThreshold);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorderTest, AutoDumpWritesIncidentAndRespectsBudget) {
  const std::string dir = testing::TempDir() + "/fr_auto_dump";
  std::filesystem::remove_all(dir);
  FlightRecorderOptions o;
  o.pause_threshold_ns = 1000;
  o.dump_dir = dir;
  FlightRecorder fr(o);
  EXPECT_EQ(fr.RecordPause(MakePause(0, 2000)), FrTrigger::kPauseThreshold);
  EXPECT_EQ(fr.incidents(), 1u);
  ASSERT_FALSE(fr.last_dump_path().empty());
  const std::string json = ReadFile(fr.last_dump_path());
  EXPECT_NE(json.find("\"schema\":\"nvmgc.incident.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"pause_threshold\""), std::string::npos);
  EXPECT_NE(json.find("\"trace_file\":\"incident-0.trace.json\""), std::string::npos);
  const std::string trace = ReadFile(dir + "/incident-0.trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"gc.pause\""), std::string::npos);

  // Each further trigger dumps until the auto budget is spent.
  constexpr uint64_t kBudget = FlightRecorder::kMaxAutoDumps;
  for (uint64_t i = 1; i < kBudget; ++i) {
    EXPECT_EQ(fr.RecordPause(MakePause(i, 2000)), FrTrigger::kPauseThreshold);
    EXPECT_EQ(fr.incidents(), i + 1);
  }
  // Budget exhausted: the trigger still reports, but no further auto dump.
  EXPECT_EQ(fr.RecordPause(MakePause(kBudget, 3000)), FrTrigger::kPauseThreshold);
  EXPECT_EQ(fr.incidents(), kBudget);
  // Explicit dumps bypass the auto budget and keep their own sequence.
  const std::string explicit_path = fr.Dump(FrTrigger::kExplicit);
  ASSERT_FALSE(explicit_path.empty());
  EXPECT_EQ(fr.incidents(), kBudget + 1);
  EXPECT_NE(ReadFile(explicit_path).find("\"kind\":\"explicit\""), std::string::npos);
}

TEST(FlightRecorderTest, DumpWithoutDirectoryOrPausesReturnsEmpty) {
  FlightRecorder fr(FlightRecorderOptions{});
  EXPECT_EQ(fr.Dump(FrTrigger::kExplicit), "");  // No pauses yet.
  fr.RecordPause(MakePause(0, 100));
  EXPECT_EQ(fr.Dump(FrTrigger::kExplicit), "");  // No directory configured.
  EXPECT_NE(fr.Dump(FrTrigger::kExplicit, testing::TempDir() + "/fr_override"), "");
}

// --- End-to-end Vm wiring ---

VmOptions SmallVm() {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 32;
  o.heap.eden_regions = 32;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc = AllOptimizationsOptions(CollectorKind::kG1, 4);
  return o;
}

TEST(FlightRecorderVmTest, SiteTagsSurviveEvacuationAndDeathsAreInferred) {
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 64);
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const AllocSiteId site = vm.RegisterAllocSite("test.node");
  ASSERT_NE(site, kUntaggedSite);

  // 64 tagged nodes; half rooted (survive), half garbage (die at age 0).
  GlobalRoot table(vm, m->Allocate({refs, 32}));
  for (size_t i = 0; i < 64; ++i) {
    const Address obj = m->Allocate({node, 0, false, site});
    if (i % 2 == 0) {
      m->WriteRef(table.Get(), i / 2, obj);
    }
  }
  vm.CollectNow();

  const SiteStats& s = vm.site_profiler().sites()[site];
  EXPECT_EQ(s.allocated_objects, 64u);
  EXPECT_EQ(s.survived_objects, 32u);
  EXPECT_EQ(s.died_objects, 32u);
  EXPECT_EQ(s.lifetime.count(), 32u);
  EXPECT_GT(s.nvm_copy_bytes + s.staged_bytes, 0u);  // NVM heap: copies hit
                                                     // NVM or the write cache.

  // Second pause: the rooted half survives again at age 1, nothing new dies.
  vm.CollectNow();
  EXPECT_EQ(vm.site_profiler().sites()[site].survived_objects, 64u);

  // The recorder retained both pauses with the site attribution attached.
  const FlightRecorder& fr = vm.flight_recorder();
  EXPECT_EQ(fr.pauses_recorded(), vm.gc_count());
  ASSERT_EQ(fr.pauses().size(), 2u);
  bool site_seen = false;
  for (const SitePauseDelta& d : fr.pauses().front().sites) {
    site_seen |= d.site == site;
  }
  EXPECT_TRUE(site_seen);
}

TEST(FlightRecorderVmTest, ExplicitDumpProducesValidatableIncident) {
  const std::string dir = testing::TempDir() + "/fr_vm_dump";
  std::filesystem::remove_all(dir);
  Vm vm(SmallVm());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 64);
  const AllocSiteId site = vm.RegisterAllocSite("test.dump");
  GlobalRoot keep(vm, m->Allocate({node, 0, false, site}));
  vm.CollectNow();
  vm.CollectNow();

  const std::string path = vm.DumpFlightRecord(dir);
  ASSERT_FALSE(path.empty());
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"schema\":\"nvmgc.incident.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"explicit\""), std::string::npos);
  EXPECT_NE(json.find("test.dump"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gc.pause_ns\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(vm.metrics().gauges().at("fr.incidents"), 1u);

  // The GC report prints the recorder + allocation-site sections.
  std::string report;
  {
    std::FILE* tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    PrintGcSummary(&vm, tmp);
    std::rewind(tmp);
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0) {
      report.append(buf, n);
    }
    std::fclose(tmp);
  }
  EXPECT_NE(report.find("flight recorder:"), std::string::npos);
  EXPECT_NE(report.find("test.dump"), std::string::npos);
}

// An incident from an adaptive-policy Vm carries the policy decisions in its
// JSON and as policy.* instants in its companion trace, and passes the
// incident validator (which also checks each pause's derived kind, degraded
// and retreat keys against its counters and decisions).
TEST(FlightRecorderVmTest, AdaptiveIncidentCarriesPolicyDecisions) {
  const std::string dir = testing::TempDir() + "/fr_vm_adaptive";
  std::filesystem::remove_all(dir);
  VmOptions o = SmallVm();
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 96;
  o.heap.eden_regions = 64;
  o.gc = AdaptiveOptions(CollectorKind::kG1, 8);
  Vm vm(o);
  WorkloadProfile profile;
  profile.name = "fr-adaptive";
  profile.survival_fraction = 0.3;
  profile.live_window_bytes = 4 * 1024 * 1024;
  profile.total_allocation_bytes = 16 * 1024 * 1024;
  SyntheticApp app(&vm, profile);
  app.Run();
  ASSERT_LE(vm.gc_count(), FlightRecorder::kRetainPauses);  // Every pause retained.
  ASSERT_FALSE(vm.policy()->decisions().empty());

  const std::string path = vm.DumpFlightRecord(dir);
  ASSERT_FALSE(path.empty());
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"decisions\":[{\"knob\":"), std::string::npos);
  const std::string trace = ReadFile(dir + "/incident-0.trace.json");
  EXPECT_NE(trace.find("\"name\":\"policy."), std::string::npos);
  EXPECT_NE(trace.find("\"cat\":\"policy\""), std::string::npos);
#ifdef NVMGC_PYTHON
  const std::string validate = std::string(NVMGC_PYTHON) + " " NVMGC_SOURCE_DIR
                               "/scripts/fr_analyze.py --validate " + dir;
  EXPECT_EQ(std::system(validate.c_str()), 0) << validate;
#endif
}

TEST(FlightRecorderVmTest, PauseThresholdOptionTriggersAutoDump) {
  const std::string dir = testing::TempDir() + "/fr_vm_auto";
  std::filesystem::remove_all(dir);
  VmOptions o = SmallVm();
  o.flight_recorder.pause_threshold_ns = 1;  // Every pause is an anomaly.
  o.flight_recorder.dump_dir = dir;
  Vm vm(o);
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 64);
  GlobalRoot keep(vm, m->Allocate({node}));
  vm.CollectNow();
  EXPECT_GE(vm.flight_recorder().incidents(), 1u);
  EXPECT_EQ(vm.metrics().counter("fr.trigger.pause_threshold"), 1u);
  EXPECT_TRUE(std::filesystem::exists(dir + "/incident-0.json"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/incident-0.trace.json"));
}

TEST(FlightRecorderVmTest, CrashInjectorDumpsTheFlightRecord) {
  const std::string dir = testing::TempDir() + "/fr_crash_dump";
  std::filesystem::remove_all(dir);
  VmOptions o = SmallVm();
  o.gc = DurableOptions(CollectorKind::kG1, 4);
  Vm vm(o);
  CrashInjector crash(&vm.heap_device().persist(), ~uint64_t{0});
  crash.ArmFlightRecorder(&vm.flight_recorder(), dir);

  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 0, 64);
  GlobalRoot keep(vm, m->Allocate({node}));
  vm.CollectNow();
  const CrashImage image = crash.TakeImage();
  (void)image;
  ASSERT_FALSE(crash.flight_dump_path().empty());
  const std::string json = ReadFile(crash.flight_dump_path());
  EXPECT_NE(json.find("\"kind\":\"crash\""), std::string::npos);
}

}  // namespace
}  // namespace nvmgc
