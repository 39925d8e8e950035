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

void RecordGcCycle(MetricsRegistry* registry, const GcCycleStats& cycle) {
  const std::string kind_prefix = std::string("gc.pause.") + GcKindName(cycle.kind()) + ".";
  for (const std::string& prefix : {std::string("gc."), kind_prefix}) {
    registry->RecordHistogram(prefix + "pause_ns", cycle.pause_ns);
    registry->RecordHistogram(prefix + "read_phase_ns", cycle.read_phase_ns);
    registry->RecordHistogram(prefix + "writeback_phase_ns", cycle.writeback_phase_ns);
  }
  registry->RecordPause(SnapshotFromCycle(registry->pauses().size(), cycle));
}

}  // namespace nvmgc
