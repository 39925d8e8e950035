// Unified metrics registry: every counter the runtime produces — the per-pause
// GcCycleStats fields (write-cache, header-map and per-pause device traffic
// included), fault-injector counters, MemoryDevice lifetime ledgers — under
// stable dotted names (see DESIGN.md §6 for the naming scheme), with per-pause
// snapshots and process-lifetime aggregation.
//
// Threading: the registry is owned by the Vm and mutated only on the control
// thread (pause boundaries, end-of-run exports). Parallel GC phases never
// touch it — workers accumulate into their own GcCycleStats and the merged
// cycle is recorded once per pause, by RecordGcCycle.

#ifndef NVMGC_SRC_OBS_METRICS_H_
#define NVMGC_SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/gc/gc_stats.h"
#include "src/util/histogram.h"

namespace nvmgc {

// One pause's metric values (name → value). Names are the stable dotted
// scheme; the set of keys for GC pauses is GcPauseMetricNames().
struct PauseSnapshot {
  uint64_t id = 0;        // Pause ordinal within the process (0-based).
  uint64_t start_ns = 0;  // Simulated time the pause began.
  std::map<std::string, uint64_t> values;
};

// Plain-value percentile digest of one histogram (what reports and bench
// JSON carry — the full bucket array never leaves the registry).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t p50 = 0;
  uint64_t p95 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
  double mean = 0.0;
};

// Digest of `h` (all zeros for an empty histogram).
HistogramSummary Summarize(const Histogram& h);

class MetricsRegistry {
 public:
  // --- Lifetime aggregates ---
  // Counters are monotonic sums; gauges are last-value-wins.
  void AddCounter(const std::string& name, uint64_t delta);
  void SetGauge(const std::string& name, uint64_t value);
  // Records `value` into the named histogram (created on first use).
  void RecordHistogram(const std::string& name, uint64_t value);

  // Returns 0 / nullptr when the name was never recorded.
  uint64_t counter(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;
  // Percentile digest of the named histogram (zero digest when absent).
  HistogramSummary Summary(const std::string& name) const;
  // Digests of every recorded histogram, keyed by name.
  std::map<std::string, HistogramSummary> Summaries() const;

  // --- Per-pause snapshots ---
  // Records one pause: every snapshot value is also added to the lifetime
  // counter of the same name, so snapshot-vs-aggregate stays consistent by
  // construction.
  void RecordPause(PauseSnapshot snapshot);
  const std::vector<PauseSnapshot>& pauses() const { return pauses_; }

  const std::map<std::string, uint64_t>& counters() const { return counters_; }
  const std::map<std::string, uint64_t>& gauges() const { return gauges_; }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, uint64_t> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::vector<PauseSnapshot> pauses_;
};

// --- GC cycle → metrics mapping ---

// The stable per-pause metric names, in the order they appear in snapshots.
const std::vector<std::string>& GcPauseMetricNames();

// Maps one merged GC cycle to a snapshot keyed by GcPauseMetricNames().
PauseSnapshot SnapshotFromCycle(uint64_t id, const GcCycleStats& cycle);

// Records one merged GC cycle, the only per-pause recording path: its
// snapshot (keyed by GcPauseMetricNames(), so also the lifetime counters of
// the same names) and the duration histograms — the aggregate gc.pause_ns /
// gc.read_phase_ns / gc.writeback_phase_ns tracks plus the kind-split
// gc.pause.minor.* / gc.pause.major.* tracks (from cycle.is_major;
// non-generational runs only ever populate the minor tracks, so percentile
// dashboards stay comparable across modes).
void RecordGcCycle(MetricsRegistry* registry, const GcCycleStats& cycle);

}  // namespace nvmgc

#endif  // NVMGC_SRC_OBS_METRICS_H_
