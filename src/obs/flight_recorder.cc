#include "src/obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace nvmgc {

namespace {

// Minimal JSON emission, matching the hand-serialized style of the bench
// runner: no dependency, append-only into a std::string.

void AppendQuoted(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

void AppendU64(std::string* out, const char* key, uint64_t value, bool comma = true) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += std::to_string(value);
  if (comma) *out += ',';
}

void AppendBool(std::string* out, const char* key, bool value, bool comma = true) {
  *out += '"';
  *out += key;
  *out += "\":";
  *out += value ? "true" : "false";
  if (comma) *out += ',';
}

void AppendDouble(std::string* out, const char* key, double value, bool comma = true) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.6g", key, value);
  *out += buf;
  if (comma) *out += ',';
}

void AppendStr(std::string* out, const char* key, const std::string& value,
               bool comma = true) {
  *out += '"';
  *out += key;
  *out += "\":";
  AppendQuoted(out, value);
  if (comma) *out += ',';
}

void AppendSiteFields(std::string* out, const SitePauseDelta& s) {
  AppendU64(out, "site", s.site);
  AppendStr(out, "name", s.name);
  AppendU64(out, "survived_objects", s.survived_objects);
  AppendU64(out, "survived_bytes", s.survived_bytes);
  AppendU64(out, "promoted_objects", s.promoted_objects);
  AppendU64(out, "promoted_bytes", s.promoted_bytes);
  AppendU64(out, "died_objects", s.died_objects);
  AppendU64(out, "died_bytes", s.died_bytes);
  AppendU64(out, "nvm_copy_bytes", s.nvm_copy_bytes);
  AppendU64(out, "staged_bytes", s.staged_bytes, /*comma=*/false);
}

// Chrome-trace timestamp: simulated ns in microseconds.
void AppendTs(std::string* out, uint64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "\"ts\":%.3f", ns / 1000.0);
  *out += buf;
}

void AppendCounterEvent(std::string* out, const char* name, uint64_t time_ns,
                        double value, bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += "{\"ph\":\"C\",\"name\":\"";
  *out += name;
  *out += "\",\"cat\":\"nvm\",\"pid\":0,\"tid\":0,";
  AppendTs(out, time_ns);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.6g}}", value);
  *out += buf;
}

}  // namespace

const char* FrTriggerName(FrTrigger trigger) {
  switch (trigger) {
    case FrTrigger::kNone: return "none";
    case FrTrigger::kPauseThreshold: return "pause_threshold";
    case FrTrigger::kP99Outlier: return "p99_outlier";
    case FrTrigger::kDegraded: return "degraded";
    case FrTrigger::kRetreat: return "retreat";
    case FrTrigger::kSurvivorOverflow: return "survivor_overflow";
    case FrTrigger::kExplicit: return "explicit";
    case FrTrigger::kCrash: return "crash";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options) : options_(std::move(options)) {}

uint64_t FlightRecorder::TrailingP99() const {
  if (trailing_pause_ns_.empty()) return 0;
  std::vector<uint64_t> window(trailing_pause_ns_.begin(), trailing_pause_ns_.end());
  const size_t idx = (window.size() - 1) * 99 / 100;
  std::nth_element(window.begin(), window.begin() + idx, window.end());
  return window[idx];
}

FrTriggerInfo FlightRecorder::Evaluate(const FlightPauseRecord& record) const {
  FrTriggerInfo info;
  info.pause_id = record.pause_id;
  info.observed_ns = record.stats.pause_ns;
  if (options_.pause_threshold_ns > 0 &&
      record.stats.pause_ns > options_.pause_threshold_ns) {
    info.kind = FrTrigger::kPauseThreshold;
    info.threshold_ns = options_.pause_threshold_ns;
    info.detail = "pause exceeded the configured absolute threshold";
    return info;
  }
  if (trailing_pause_ns_.size() >= kP99MinHistory) {
    const uint64_t p99 = TrailingP99();
    const double bound = static_cast<double>(p99) * kP99Multiplier;
    if (p99 > 0 && static_cast<double>(record.stats.pause_ns) > bound) {
      info.kind = FrTrigger::kP99Outlier;
      info.threshold_ns = static_cast<uint64_t>(bound);
      info.detail = "pause exceeded the trailing-p99 multiple";
      return info;
    }
  }
  if (record.degraded) {
    info.kind = FrTrigger::kDegraded;
    info.detail = "pause ran in degraded mode";
    return info;
  }
  if (record.retreat) {
    info.kind = FrTrigger::kRetreat;
    for (const PolicyDecision& d : record.decisions) {
      if (d.retreat) {
        info.detail = "policy retreat: " + d.reason;
        break;
      }
    }
    return info;
  }
  if (record.stats.survivor_overflow_bytes > 0) {
    info.kind = FrTrigger::kSurvivorOverflow;
    info.observed_ns = record.stats.survivor_overflow_bytes;
    info.detail = "survivor space overflowed; survivors promoted early";
    return info;
  }
  return info;
}

FrTrigger FlightRecorder::RecordPause(FlightPauseRecord record) {
  if (!options_.enabled) return FrTrigger::kNone;
  ++pauses_recorded_;
  pauses_.push_back(std::move(record));
  while (pauses_.size() > kRetainPauses) pauses_.pop_front();

  // Evaluate against the trailing window *excluding* this pause, so a single
  // outlier cannot raise the p99 it is judged against.
  const FrTriggerInfo info = Evaluate(pauses_.back());
  trailing_pause_ns_.push_back(pauses_.back().stats.pause_ns);
  while (trailing_pause_ns_.size() > kTrailingWindow) trailing_pause_ns_.pop_front();

  if (info.kind == FrTrigger::kNone) return FrTrigger::kNone;
  last_trigger_ = info;
  if (!options_.dump_dir.empty() && auto_dumps_ < kMaxAutoDumps) {
    std::string path;
    if (WriteIncident(options_.dump_dir, info, &path)) {
      ++auto_dumps_;
      ++incidents_;
      last_dump_path_ = path;
    }
  }
  return info.kind;
}

std::string FlightRecorder::Dump(FrTrigger trigger, const std::string& dir_override) {
  if (!options_.enabled || pauses_.empty()) return "";
  const std::string& dir = dir_override.empty() ? options_.dump_dir : dir_override;
  if (dir.empty()) return "";
  FrTriggerInfo info;
  info.kind = trigger;
  info.pause_id = pauses_.back().pause_id;
  info.observed_ns = pauses_.back().stats.pause_ns;
  info.detail = trigger == FrTrigger::kCrash
                    ? "crash image captured; flight record of the pauses before the cut"
                    : "explicit dump request";
  std::string path;
  if (!WriteIncident(dir, info, &path)) return "";
  last_trigger_ = info;
  ++incidents_;
  last_dump_path_ = path;
  return path;
}

bool FlightRecorder::WriteIncident(const std::string& dir, const FrTriggerInfo& trigger,
                                   std::string* out_path) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string base = options_.tenant.empty()
                               ? "incident-" + std::to_string(next_incident_seq_)
                               : "incident-" + options_.tenant + "-" +
                                     std::to_string(next_incident_seq_);
  const std::string trace_name = base + ".trace.json";
  const std::filesystem::path incident_path = std::filesystem::path(dir) / (base + ".json");
  const std::filesystem::path trace_path = std::filesystem::path(dir) / trace_name;
  {
    std::ofstream trace(trace_path);
    if (!trace) return false;
    trace << SerializeTrace();
    if (!trace.good()) return false;
  }
  {
    std::ofstream incident(incident_path);
    if (!incident) return false;
    incident << SerializeIncident(trigger, trace_name);
    if (!incident.good()) return false;
  }
  ++next_incident_seq_;
  *out_path = incident_path.string();
  return true;
}

std::string FlightRecorder::SerializeIncident(const FrTriggerInfo& trigger,
                                              const std::string& trace_file) const {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"schema\":\"nvmgc.incident.v1\",";
  if (!options_.tenant.empty()) {
    AppendStr(&out, "tenant", options_.tenant);
  }
  out += "\"trigger\":{";
  AppendStr(&out, "kind", FrTriggerName(trigger.kind));
  AppendU64(&out, "pause_id", trigger.pause_id);
  AppendU64(&out, "observed_ns", trigger.observed_ns);
  AppendU64(&out, "threshold_ns", trigger.threshold_ns);
  AppendStr(&out, "detail", trigger.detail, /*comma=*/false);
  out += "},";
  AppendStr(&out, "trace_file", trace_file);
  AppendU64(&out, "retained_pauses", pauses_.size());
  AppendU64(&out, "pauses_recorded", pauses_recorded_);
  AppendU64(&out, "trailing_p99_ns", TrailingP99());
  out += "\"pauses\":[";
  bool first_pause = true;
  for (const FlightPauseRecord& p : pauses_) {
    if (!first_pause) out += ',';
    first_pause = false;
    out += '{';
    AppendU64(&out, "pause_id", p.pause_id);
    AppendStr(&out, "kind", GcKindName(p.kind));
    AppendBool(&out, "degraded", p.degraded);
    AppendBool(&out, "retreat", p.retreat);
    AppendU64(&out, "start_ns", p.stats.start_ns);
    AppendU64(&out, "pause_ns", p.stats.pause_ns);
    AppendU64(&out, "read_phase_ns", p.stats.read_phase_ns);
    AppendU64(&out, "writeback_phase_ns", p.stats.writeback_phase_ns);
    out += "\"counters\":{";
    // The stable dotted names (gc_stats.h kGcCycleFields) + the pause's DRAM
    // traffic, exactly what the per-pause MetricsRegistry snapshot carries.
    PauseSnapshot snap = SnapshotFromCycle(p.pause_id, p.stats);
    snap.values["device.dram.read_bytes"] = p.dram_read_bytes;
    snap.values["device.dram.write_bytes"] = p.dram_write_bytes;
    bool first_counter = true;
    for (const auto& [name, value] : snap.values) {
      if (!first_counter) out += ',';
      first_counter = false;
      AppendQuoted(&out, name);
      out += ':';
      out += std::to_string(value);
    }
    out += "},";
    out += "\"decisions\":[";
    bool first_decision = true;
    for (const PolicyDecision& d : p.decisions) {
      if (!first_decision) out += ',';
      first_decision = false;
      out += '{';
      AppendStr(&out, "knob", PolicyKnobName(d.knob));
      AppendU64(&out, "from", d.old_value);
      AppendU64(&out, "to", d.new_value);
      AppendBool(&out, "retreat", d.retreat);
      AppendStr(&out, "reason", d.reason, /*comma=*/false);
      out += '}';
    }
    out += "],";
    out += "\"timeline\":[";
    bool first_sample = true;
    for (const TimelineSample& s : p.timeline) {
      if (!first_sample) out += ',';
      first_sample = false;
      out += '{';
      AppendStr(&out, "phase", GcPhaseKindName(s.phase));
      AppendU64(&out, "time_ns", s.time_ns);
      AppendDouble(&out, "read_mbps", s.read_mbps);
      AppendDouble(&out, "write_mbps", s.write_mbps);
      AppendDouble(&out, "interleave", s.interleave);
      AppendDouble(&out, "model_mbps", s.model_mbps, /*comma=*/false);
      out += '}';
    }
    out += "],";
    out += "\"sites\":[";
    bool first_site = true;
    for (const SitePauseDelta& s : p.sites) {
      if (!first_site) out += ',';
      first_site = false;
      out += '{';
      AppendSiteFields(&out, s);
      out += '}';
    }
    out += "]}";
  }
  out += "],";
  out += "\"sites\":[";
  if (site_profiler_ != nullptr) {
    bool first_site = true;
    for (size_t i = 0; i < site_profiler_->sites().size(); ++i) {
      const SiteStats& s = site_profiler_->sites()[i];
      if (s.allocated_objects == 0 && i != kUntaggedSite) continue;
      if (!first_site) out += ',';
      first_site = false;
      out += '{';
      AppendU64(&out, "site", i);
      AppendStr(&out, "name", s.name);
      AppendU64(&out, "allocated_objects", s.allocated_objects);
      AppendU64(&out, "allocated_bytes", s.allocated_bytes);
      AppendU64(&out, "large_objects", s.large_objects);
      AppendU64(&out, "large_bytes", s.large_bytes);
      AppendU64(&out, "survived_objects", s.survived_objects);
      AppendU64(&out, "survived_bytes", s.survived_bytes);
      AppendU64(&out, "promoted_objects", s.promoted_objects);
      AppendU64(&out, "promoted_bytes", s.promoted_bytes);
      AppendU64(&out, "died_objects", s.died_objects);
      AppendU64(&out, "died_bytes", s.died_bytes);
      AppendU64(&out, "nvm_copy_bytes", s.nvm_copy_bytes);
      AppendU64(&out, "staged_bytes", s.staged_bytes);
      AppendDouble(&out, "tenuring_rate", s.TenuringRate());
      AppendDouble(&out, "nvm_write_amplification", s.NvmWriteAmplification());
      const HistogramSummary life = Summarize(s.lifetime);
      out += "\"lifetime\":{";
      AppendU64(&out, "count", life.count);
      AppendU64(&out, "p50", life.p50);
      AppendU64(&out, "p95", life.p95);
      AppendU64(&out, "p99", life.p99);
      AppendU64(&out, "max", life.max);
      AppendDouble(&out, "mean", life.mean, /*comma=*/false);
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

std::string FlightRecorder::SerializeTrace() const {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const FlightPauseRecord& p : pauses_) {
    const uint64_t start = p.stats.start_ns;
    struct Span {
      const char* name;
      uint64_t start_ns;
      uint64_t dur_ns;
    };
    const Span spans[] = {
        {"gc.pause", start, p.stats.pause_ns},
        {"gc.read_phase", start, p.stats.read_phase_ns},
        {"gc.writeback_phase", start + p.stats.read_phase_ns,
         p.stats.writeback_phase_ns},
    };
    for (const Span& s : spans) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"X\",\"name\":\"";
      out += s.name;
      out += "\",\"cat\":\"gc\",\"pid\":0,\"tid\":0,";
      AppendTs(&out, s.start_ns);
      char buf[48];
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f,", s.dur_ns / 1000.0);
      out += buf;
      out += "\"args\":{";
      AppendU64(&out, "pause_id", p.pause_id);
      AppendStr(&out, "kind", GcKindName(p.kind), /*comma=*/false);
      out += "}}";
    }
    if (p.degraded) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"i\",\"name\":\"gc.degraded\",\"cat\":\"gc\",\"s\":\"g\","
             "\"pid\":0,\"tid\":0,";
      AppendTs(&out, start);
      out += ",\"args\":{";
      AppendU64(&out, "pause_id", p.pause_id, /*comma=*/false);
      out += "}}";
    }
    for (const PolicyDecision& d : p.decisions) {
      if (!first) out += ',';
      first = false;
      out += "{\"ph\":\"i\",\"name\":\"policy.";
      out += PolicyKnobName(d.knob);
      out += "\",\"cat\":\"policy\",\"s\":\"g\",\"pid\":0,\"tid\":0,";
      AppendTs(&out, start + p.stats.pause_ns);
      out += ",\"args\":{";
      AppendU64(&out, "from", d.old_value);
      AppendU64(&out, "to", d.new_value);
      AppendBool(&out, "retreat", d.retreat);
      AppendStr(&out, "reason", d.reason, /*comma=*/false);
      out += "}}";
    }
    for (const TimelineSample& s : p.timeline) {
      AppendCounterEvent(&out, "nvm.read_mbps", s.time_ns, s.read_mbps, &first);
      AppendCounterEvent(&out, "nvm.write_mbps", s.time_ns, s.write_mbps, &first);
      AppendCounterEvent(&out, "nvm.interleave", s.time_ns, s.interleave, &first);
      AppendCounterEvent(&out, "nvm.model_mbps", s.time_ns, s.model_mbps, &first);
    }
  }
  out += "]}";
  return out;
}

}  // namespace nvmgc
