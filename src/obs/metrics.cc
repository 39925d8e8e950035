#include "src/obs/metrics.h"

#include <utility>

namespace nvmgc {

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::SetGauge(const std::string& name, uint64_t value) {
  gauges_[name] = value;
}

void MetricsRegistry::RecordHistogram(const std::string& name, uint64_t value) {
  histograms_[name].Record(value);
}

uint64_t MetricsRegistry::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  return counters_.find(name) != counters_.end();
}

const Histogram* MetricsRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

HistogramSummary Summarize(const Histogram& h) {
  HistogramSummary s;
  if (h.count() == 0) {
    return s;
  }
  s.count = h.count();
  s.p50 = h.Percentile(50.0);
  s.p95 = h.Percentile(95.0);
  s.p99 = h.Percentile(99.0);
  s.max = h.max();
  s.mean = h.Mean();
  return s;
}

HistogramSummary MetricsRegistry::Summary(const std::string& name) const {
  const Histogram* h = histogram(name);
  return h == nullptr ? HistogramSummary{} : Summarize(*h);
}

std::map<std::string, HistogramSummary> MetricsRegistry::Summaries() const {
  std::map<std::string, HistogramSummary> out;
  for (const auto& [name, hist] : histograms_) {
    out[name] = Summarize(hist);
  }
  return out;
}

std::vector<std::string> MetricsRegistry::CounterNames() const {
  std::vector<std::string> names;
  names.reserve(counters_.size());
  for (const auto& [name, value] : counters_) {
    names.push_back(name);
  }
  return names;  // std::map iteration is already sorted.
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& src, const std::string& prefix) {
  for (const auto& [name, value] : src.counters_) {
    AddCounter(prefix + name, value);
  }
  for (const auto& [name, value] : src.gauges_) {
    SetGauge(prefix + name, value);
  }
  for (const auto& [name, histogram] : src.histograms_) {
    histograms_[prefix + name].Merge(histogram);
  }
  for (const PauseSnapshot& pause : src.pauses_) {
    PauseSnapshot prefixed;
    prefixed.id = pause.id;
    prefixed.start_ns = pause.start_ns;
    for (const auto& [name, value] : pause.values) {
      prefixed.values[prefix + name] = value;
    }
    // Appended directly (not via RecordPause): the merged counters above
    // already carry these values, and double-adding would break the
    // snapshot-vs-aggregate consistency MergeFrom preserves.
    pauses_.push_back(std::move(prefixed));
  }
}

void MetricsRegistry::RecordPause(PauseSnapshot snapshot) {
  for (const auto& [name, value] : snapshot.values) {
    AddCounter(name, value);
  }
  pauses_.push_back(std::move(snapshot));
}

const std::vector<std::string>& GcPauseMetricNames() {
  static const std::vector<std::string>* names = [] {
    auto* v = new std::vector<std::string>;
    for (const GcCycleField& f : kGcCycleFields) {
      if (f.metric != nullptr) {
        v->push_back(f.metric);
      }
    }
    return v;
  }();
  return *names;
}

PauseSnapshot SnapshotFromCycle(uint64_t id, const GcCycleStats& cycle) {
  PauseSnapshot snap;
  snap.id = id;
  snap.start_ns = cycle.start_ns;
  for (const GcCycleField& f : kGcCycleFields) {
    if (f.metric != nullptr) {
      snap.values[f.metric] = cycle.*f.member;
    }
  }
  return snap;
}

void RecordGcCycleHistograms(MetricsRegistry* registry, const GcCycleStats& cycle) {
  registry->RecordHistogram("gc.pause_ns", cycle.pause_ns);
  registry->RecordHistogram("gc.read_phase_ns", cycle.read_phase_ns);
  registry->RecordHistogram("gc.writeback_phase_ns", cycle.writeback_phase_ns);
  const std::string kind_prefix =
      std::string("gc.pause.") + (cycle.is_major != 0 ? "major" : "minor") + ".";
  registry->RecordHistogram(kind_prefix + "pause_ns", cycle.pause_ns);
  registry->RecordHistogram(kind_prefix + "read_phase_ns", cycle.read_phase_ns);
  registry->RecordHistogram(kind_prefix + "writeback_phase_ns", cycle.writeback_phase_ns);
}

void RecordGcCycle(MetricsRegistry* registry, const GcCycleStats& cycle) {
  RecordGcCycleHistograms(registry, cycle);
  registry->RecordPause(SnapshotFromCycle(registry->pauses().size(), cycle));
}

}  // namespace nvmgc
