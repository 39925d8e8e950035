// Tests for the observability layer (src/obs/): the MetricsRegistry with its
// stable dotted names and snapshot-vs-aggregate consistency, the GcTracer
// ring buffers, and the Chrome-trace export of a real traced GC cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

TEST(MetricsRegistryTest, CountersGaugesAndHistograms) {
  MetricsRegistry m;
  EXPECT_EQ(m.counter("gc.never_recorded"), 0u);
  EXPECT_EQ(m.counters().count("gc.never_recorded"), 0u);
  m.AddCounter("gc.steals", 3);
  m.AddCounter("gc.steals", 4);
  EXPECT_EQ(m.counter("gc.steals"), 7u);
  EXPECT_EQ(m.counters().count("gc.steals"), 1u);

  m.SetGauge("cache.occupancy_bytes", 10);
  m.SetGauge("cache.occupancy_bytes", 5);  // Last value wins.
  EXPECT_EQ(m.gauges().at("cache.occupancy_bytes"), 5u);

  EXPECT_EQ(m.histogram("gc.pause_ns"), nullptr);
  m.RecordHistogram("gc.pause_ns", 100);
  m.RecordHistogram("gc.pause_ns", 300);
  ASSERT_NE(m.histogram("gc.pause_ns"), nullptr);
  EXPECT_EQ(m.histogram("gc.pause_ns")->count(), 2u);
  EXPECT_EQ(m.histogram("gc.pause_ns")->max(), 300u);
}

TEST(MetricsRegistryTest, RecordPauseFeedsLifetimeCounters) {
  MetricsRegistry m;
  PauseSnapshot a;
  a.id = 0;
  a.values["gc.pause_ns"] = 100;
  a.values["gc.bytes_copied"] = 64;
  PauseSnapshot b;
  b.id = 1;
  b.values["gc.pause_ns"] = 50;
  b.values["gc.bytes_copied"] = 32;
  m.RecordPause(a);
  m.RecordPause(b);
  ASSERT_EQ(m.pauses().size(), 2u);
  // Snapshot-vs-aggregate consistency by construction: lifetime counters are
  // the sums of the per-pause values.
  EXPECT_EQ(m.counter("gc.pause_ns"), 150u);
  EXPECT_EQ(m.counter("gc.bytes_copied"), 96u);
  for (const PauseSnapshot& p : m.pauses()) {
    for (const auto& [name, value] : p.values) {
      EXPECT_LE(value, m.counter(name)) << name;
    }
  }
}

TEST(MetricsRegistryTest, SnapshotFromCycleUsesTheStableNames) {
  GcCycleStats cycle;
  cycle.start_ns = 42;
  cycle.pause_ns = 1000;
  cycle.cache_bytes_staged = 4096;
  cycle.header_map_installs = 7;
  cycle.device_read_bytes = 8192;
  cycle.degraded_mode = 1;
  const PauseSnapshot snap = SnapshotFromCycle(3, cycle);
  EXPECT_EQ(snap.id, 3u);
  EXPECT_EQ(snap.start_ns, 42u);
  // The snapshot keys are exactly GcPauseMetricNames() — the documented
  // stable scheme consumers (bench JSON, CI checker) rely on: every field but
  // start_ns (the snapshot's own timestamp), each name once.
  const std::vector<std::string>& names = GcPauseMetricNames();
  EXPECT_EQ(names.size(), 37u);
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(), names.size());
  ASSERT_EQ(snap.values.size(), names.size());
  for (const std::string& name : names) {
    EXPECT_TRUE(snap.values.count(name)) << name;
  }
  EXPECT_EQ(snap.values.at("gc.pause_ns"), 1000u);
  EXPECT_EQ(snap.values.at("cache.bytes_staged"), 4096u);
  EXPECT_EQ(snap.values.at("hm.installs"), 7u);
  EXPECT_EQ(snap.values.at("device.heap.read_bytes"), 8192u);
  EXPECT_EQ(snap.values.at("gc.degraded_pauses"), 1u);
  EXPECT_EQ(snap.values.at("gc.major_pauses"), 0u);
}

// The pause-metric names the Python tooling reads must stay entries of
// GcPauseMetricNames(): each script lists the ones it reads in a
// PAUSE_METRICS tuple, and a rename on either side fails here instead of
// silently emptying a check.
std::vector<std::string> ScriptPauseMetrics(const std::string& script) {
  std::ifstream in(std::string(NVMGC_SOURCE_DIR) + "/scripts/" + script);
  std::stringstream text;
  text << in.rdbuf();
  const std::string source = text.str();
  const std::string marker = "\nPAUSE_METRICS = (";
  const size_t begin = source.find(marker);
  if (begin == std::string::npos) {
    return {};
  }
  const size_t end = source.find(')', begin);
  std::vector<std::string> names;
  for (size_t open = source.find('"', begin); open < end;
       open = source.find('"', source.find('"', open + 1) + 1)) {
    names.push_back(source.substr(open + 1, source.find('"', open + 1) - open - 1));
  }
  return names;
}

TEST(ScriptMetricNamesTest, ScriptsReadOnlyPauseMetricNames) {
  const std::vector<std::string>& known = GcPauseMetricNames();
  for (const char* script : {"fr_analyze.py", "check_bench_artifacts.py"}) {
    const std::vector<std::string> names = ScriptPauseMetrics(script);
    EXPECT_FALSE(names.empty()) << script << " declares no PAUSE_METRICS tuple";
    for (const std::string& name : names) {
      EXPECT_NE(std::find(known.begin(), known.end(), name), known.end())
          << script << " reads \"" << name << "\", which is not in GcPauseMetricNames()";
    }
  }
}

// A cycle whose fields hold distinct values, set through the field table.
GcCycleStats DistinctCycle(uint64_t base) {
  GcCycleStats cycle;
  uint64_t v = base;
  for (const GcCycleField& f : kGcCycleFields) {
    cycle.*f.member = v++;
  }
  return cycle;
}

TEST(GcStatsTest, TotalsFollowEachFieldsMergeRule) {
  const GcCycleStats a = DistinctCycle(10);
  const GcCycleStats b = DistinctCycle(1000);
  GcStats stats;
  stats.Add(a);
  stats.Add(b);
  const GcCycleStats t = stats.Totals();
  for (const GcCycleField& f : kGcCycleFields) {
    const uint64_t want = f.merge == FieldMerge::kSum ? a.*f.member + b.*f.member : 0;
    EXPECT_EQ(t.*f.member, want) << (f.metric != nullptr ? f.metric : "(no metric)");
  }
  EXPECT_EQ(t.pause_ns, a.pause_ns + b.pause_ns);
  EXPECT_EQ(t.persist_commit_bytes, a.persist_commit_bytes + b.persist_commit_bytes);
  EXPECT_EQ(t.start_ns, 0u);  // Not a total.
  EXPECT_EQ(stats.total_pause_ns(), t.pause_ns);
}

TEST(MetricsRegistryTest, RecordGcCycleAppendsSnapshotAndHistograms) {
  MetricsRegistry m;
  GcCycleStats cycle;
  cycle.pause_ns = 500;
  cycle.read_phase_ns = 300;
  cycle.writeback_phase_ns = 200;
  RecordGcCycle(&m, cycle);
  RecordGcCycle(&m, cycle);
  ASSERT_EQ(m.pauses().size(), 2u);
  EXPECT_EQ(m.pauses()[0].id, 0u);
  EXPECT_EQ(m.pauses()[1].id, 1u);
  EXPECT_EQ(m.counter("gc.pause_ns"), 1000u);
  ASSERT_NE(m.histogram("gc.pause_ns"), nullptr);
  EXPECT_EQ(m.histogram("gc.pause_ns")->count(), 2u);
  ASSERT_NE(m.histogram("gc.read_phase_ns"), nullptr);
  EXPECT_EQ(m.histogram("gc.read_phase_ns")->Mean(), 300.0);
}

TEST(MetricsRegistryTest, KindSplitHistogramsTrackPauseKind) {
  MetricsRegistry m;
  GcCycleStats minor;
  minor.pause_ns = 100;
  minor.read_phase_ns = 60;
  minor.writeback_phase_ns = 40;
  GcCycleStats major = minor;
  major.is_major = 1;
  major.pause_ns = 900;
  RecordGcCycle(&m, minor);
  RecordGcCycle(&m, minor);
  RecordGcCycle(&m, major);
  // The aggregate histogram sees every pause; the kind-split pair partitions
  // the same recordings, so their counts sum to the aggregate's.
  ASSERT_NE(m.histogram("gc.pause_ns"), nullptr);
  ASSERT_NE(m.histogram("gc.pause.minor.pause_ns"), nullptr);
  ASSERT_NE(m.histogram("gc.pause.major.pause_ns"), nullptr);
  EXPECT_EQ(m.histogram("gc.pause.minor.pause_ns")->count(), 2u);
  EXPECT_EQ(m.histogram("gc.pause.major.pause_ns")->count(), 1u);
  EXPECT_EQ(m.histogram("gc.pause.minor.pause_ns")->count() +
                m.histogram("gc.pause.major.pause_ns")->count(),
            m.histogram("gc.pause_ns")->count());
  EXPECT_EQ(m.histogram("gc.pause.major.pause_ns")->max(), 900u);
  // Both kinds surface in the percentile digests (bench JSON
  // metrics.histograms and the GC report table read these).
  const auto summaries = m.Summaries();
  EXPECT_TRUE(summaries.count("gc.pause.minor.read_phase_ns"));
  EXPECT_TRUE(summaries.count("gc.pause.major.writeback_phase_ns"));
}

TEST(HistogramSummaryTest, SummarizeAndReset) {
  // Summarize digests the recorded values; Reset empties everything.
  Histogram a;
  a.Record(100);
  a.Record(200);
  a.Record(400);
  HistogramSummary s = Summarize(a);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.max, 400u);
  EXPECT_DOUBLE_EQ(s.mean, (100.0 + 200.0 + 400.0) / 3.0);
  EXPECT_LE(s.p50, s.p95);
  EXPECT_LE(s.p95, s.p99);
  EXPECT_LE(s.p99, s.max);

  a.Reset();
  s = Summarize(a);
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.max, 0u);
  // A reset histogram accumulates from scratch, unaffected by old buckets.
  a.Record(7);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 7u);
}

TEST(MetricsRegistryTest, SnapshotsAreIsolatedFromLaterUpdates) {
  // A per-pause snapshot is a value copy: once recorded, neither mutating the
  // source cycle nor recording later pauses may change it, and mid-pause the
  // lifetime counters must reflect only *completed* pauses — a reader between
  // RecordGcCycle calls never sees partially-updated gen.*/gc.* values.
  MetricsRegistry m;
  GcCycleStats cycle;
  cycle.pause_ns = 100;
  cycle.bytes_copied = 4096;
  RecordGcCycle(&m, cycle);
  const PauseSnapshot first = m.pauses()[0];  // Copy, as a reader would take.

  cycle.pause_ns = 900;        // Mutate the source after recording...
  cycle.bytes_copied = 1 << 20;
  EXPECT_EQ(m.pauses()[0].values.at("gc.pause_ns"), 100u);  // ...no effect.
  EXPECT_EQ(m.counter("gc.pause_ns"), 100u);  // Mid-pause: only pause 0.
  EXPECT_EQ(m.counter("gc.bytes_copied"), 4096u);

  RecordGcCycle(&m, cycle);
  // The earlier snapshot is untouched by the second pause.
  EXPECT_EQ(m.pauses()[0].values.at("gc.pause_ns"), first.values.at("gc.pause_ns"));
  EXPECT_EQ(m.pauses()[1].values.at("gc.pause_ns"), 900u);
  EXPECT_EQ(m.counter("gc.pause_ns"), 1000u);
}

TEST(GcTracerTest, DisabledTracerRecordsNothing) {
  SimClock clock;
  GcTracer tracer(2);
  ASSERT_FALSE(tracer.enabled());
  tracer.BindThread(0);
  tracer.Emit("gc.read_phase", "gc", 0, 10);
  { TraceSpan span(&tracer, &clock, "gc.pause", "gc"); }
  EXPECT_TRUE(tracer.SortedEvents().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(GcTracerTest, RingOverflowDropsOldestAndCounts) {
  GcTracer tracer(1, /*ring_capacity=*/4);
  tracer.set_enabled(true);
  tracer.BindThread(0);
  for (uint64_t i = 0; i < 10; ++i) {
    tracer.Emit("gc.steal", "gc", i, i + 1);
  }
  const std::vector<TraceEvent> events = tracer.SortedEvents();
  ASSERT_EQ(events.size(), 4u);  // Ring retains the newest capacity events.
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(events.front().start_ns, 6u);
  EXPECT_EQ(events.back().start_ns, 9u);
}

VmOptions TracedVm() {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 256;
  o.heap.dram_cache_regions = 32;
  o.heap.eden_regions = 32;
  o.gc = GcOptionsBuilder(AllOptimizationsOptions(CollectorKind::kG1, 4))
             .HeaderMapMinThreads(2)
             .Build();
  o.trace_gc = true;
  return o;
}

// Runs two real GC cycles with live data and checks the recorded spans:
// one gc.pause span per cycle on the control tid, worker read-phase spans on
// worker tids, every span nested inside its pause.
TEST(GcTracerTest, TracedGcCycleProducesNestedPhaseSpans) {
  Vm vm(TracedVm());
  Mutator* m = vm.CreateMutator();
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const KlassId node = vm.heap().klasses().RegisterRegular("N", 1, 64);
  GlobalRoot table(vm, m->Allocate({refs, 64}));
  for (size_t i = 0; i < 64; ++i) {
    m->WriteRef(table.Get(), i, m->Allocate({node}));
  }
  vm.CollectNow();
  vm.CollectNow();

  const std::vector<TraceEvent> events = vm.tracer().SortedEvents();
  ASSERT_FALSE(events.empty());
  const uint32_t control = vm.tracer().control_tid();

  std::vector<TraceEvent> pauses;
  std::set<uint32_t> read_tids;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "gc.pause") {
      EXPECT_EQ(e.tid, control);
      EXPECT_GT(e.dur_ns, 0u);
      pauses.push_back(e);
    } else if (std::string(e.name) == "gc.read_phase") {
      EXPECT_LT(e.tid, control);  // Worker spans carry worker tids.
      read_tids.insert(e.tid);
    }
  }
  EXPECT_EQ(pauses.size(), vm.gc_count());
  EXPECT_FALSE(read_tids.empty());

  // Every non-pause span nests inside some pause interval.
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "gc.pause") continue;
    const bool nested = std::any_of(
        pauses.begin(), pauses.end(), [&](const TraceEvent& p) {
          return p.start_ns <= e.start_ns &&
                 e.start_ns + e.dur_ns <= p.start_ns + p.dur_ns;
        });
    EXPECT_TRUE(nested) << e.name << " @" << e.start_ns;
  }

  // Metrics agree with the trace: one snapshot per pause, and no per-pause
  // value exceeds the lifetime counter of the same name.
  ASSERT_EQ(vm.metrics().pauses().size(), vm.gc_count());
  for (const PauseSnapshot& p : vm.metrics().pauses()) {
    for (const auto& [name, value] : p.values) {
      EXPECT_LE(value, vm.metrics().counter(name)) << name;
    }
  }
  EXPECT_GT(vm.metrics().counter("gc.bytes_copied"), 0u);
}

}  // namespace
}  // namespace nvmgc
