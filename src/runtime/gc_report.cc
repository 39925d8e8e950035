#include "src/runtime/gc_report.h"

#include <algorithm>

#include "src/runtime/vm.h"
#include "src/util/table_printer.h"

namespace nvmgc {

namespace {

std::string FormatPolicyValue(PolicyKnob knob, uint64_t value) {
  switch (knob) {
    case PolicyKnob::kWriteCacheBytes:
      return FormatSiBytes(value);
    case PolicyKnob::kHeaderMapEnabled:
    case PolicyKnob::kAsyncFlush:
      return value != 0 ? "on" : "off";
    default:
      return std::to_string(value);
  }
}

}  // namespace

std::string FormatGcCycle(size_t id, const GcCycleStats& cycle) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "[%8.3fs] GC(%zu) pause %s %.2fms (read %.2fms, write-back %.2fms) "
      "copied %s / %llu objects, promoted %s, refs %llu, steals %llu",
      static_cast<double>(cycle.start_ns) / 1e9, id,
      GcKindName(cycle.kind()),
      static_cast<double>(cycle.pause_ns) / 1e6,
      static_cast<double>(cycle.read_phase_ns) / 1e6,
      static_cast<double>(cycle.writeback_phase_ns) / 1e6,
      FormatSiBytes(cycle.bytes_copied).c_str(),
      static_cast<unsigned long long>(cycle.objects_copied),
      FormatSiBytes(cycle.bytes_promoted).c_str(),
      static_cast<unsigned long long>(cycle.refs_processed),
      static_cast<unsigned long long>(cycle.steals));
  std::string out = line;
  if (cycle.cache_bytes_staged > 0 || cycle.regions_flushed_sync > 0 ||
      cycle.regions_flushed_async > 0) {
    std::snprintf(line, sizeof(line),
                  " | cache staged %s (overflow %s), flushed %llu sync / %llu async",
                  FormatSiBytes(cycle.cache_bytes_staged).c_str(),
                  FormatSiBytes(cycle.cache_overflow_bytes).c_str(),
                  static_cast<unsigned long long>(cycle.regions_flushed_sync),
                  static_cast<unsigned long long>(cycle.regions_flushed_async));
    out += line;
  }
  if (cycle.header_map_installs > 0 || cycle.header_map_overflows > 0) {
    std::snprintf(line, sizeof(line), " | header map %llu installs, %llu overflows",
                  static_cast<unsigned long long>(cycle.header_map_installs),
                  static_cast<unsigned long long>(cycle.header_map_overflows));
    out += line;
    if (cycle.header_map_fault_probes > 0) {
      std::snprintf(line, sizeof(line), " (%llu probes under fault)",
                    static_cast<unsigned long long>(cycle.header_map_fault_probes));
      out += line;
    }
  }
  if (cycle.cache_fault_denials > 0 || cycle.cache_fallback_workers > 0) {
    std::snprintf(line, sizeof(line),
                  " | cache fallback: %llu workers direct-to-NVM (%s, %llu pair denials)",
                  static_cast<unsigned long long>(cycle.cache_fallback_workers),
                  FormatSiBytes(cycle.cache_fallback_bytes).c_str(),
                  static_cast<unsigned long long>(cycle.cache_fault_denials));
    out += line;
  }
  if (cycle.survivor_overflow_bytes > 0) {
    std::snprintf(line, sizeof(line), " | survivor overflow %s promoted early",
                  FormatSiBytes(cycle.survivor_overflow_bytes).c_str());
    out += line;
  }
  if (cycle.degraded_mode != 0) {
    out += " | DEGRADED: sync flush, cache-line stores";
  }
  return out;
}

void PrintGcLog(Vm* vm, std::FILE* out) {
  const auto& cycles = vm->gc_stats().cycles();
  for (size_t i = 0; i < cycles.size(); ++i) {
    std::fprintf(out, "%s\n", FormatGcCycle(i, cycles[i]).c_str());
  }
}

void PrintGcSummary(Vm* vm, std::FILE* out) {
  const auto& cycles = vm->gc_stats().cycles();
  const GcCycleStats totals = vm->gc_stats().Totals();
  uint64_t max_pause = 0;
  for (const auto& c : cycles) {
    max_pause = std::max(max_pause, c.pause_ns);
  }
  std::fprintf(out, "GC summary (%s collector, %u threads)\n", vm->collector().name(),
               vm->options().gc.gc_threads);
  std::fprintf(out, "  collections:     %zu\n", cycles.size());
  if (totals.is_major > 0) {
    std::fprintf(out, "  major cycles:    %llu (tenure threshold %llu)\n",
                 static_cast<unsigned long long>(totals.is_major),
                 static_cast<unsigned long long>(vm->heap().config().tenure_age));
  }
  std::fprintf(out, "  total pause:     %.2f ms\n", static_cast<double>(totals.pause_ns) / 1e6);
  if (!cycles.empty()) {
    std::fprintf(out, "  mean / max:      %.2f / %.2f ms\n",
                 static_cast<double>(totals.pause_ns) / cycles.size() / 1e6,
                 static_cast<double>(max_pause) / 1e6);
  }
  std::fprintf(out, "  copied:          %s in %llu objects\n",
               FormatSiBytes(totals.bytes_copied).c_str(),
               static_cast<unsigned long long>(totals.objects_copied));
  std::fprintf(out, "  promoted:        %s\n", FormatSiBytes(totals.bytes_promoted).c_str());
  if (totals.cache_bytes_staged + totals.cache_overflow_bytes > 0) {
    std::fprintf(out, "  write cache:     %.1f%% of survivor bytes staged in DRAM\n",
                 static_cast<double>(totals.cache_bytes_staged) /
                     static_cast<double>(totals.cache_bytes_staged +
                                         totals.cache_overflow_bytes) *
                     100.0);
  }
  if (totals.header_map_installs + totals.header_map_overflows > 0) {
    std::fprintf(out, "  header map:      %.1f%% of forwardings kept off NVM\n",
                 static_cast<double>(totals.header_map_installs) /
                     static_cast<double>(totals.header_map_installs +
                                         totals.header_map_overflows) *
                     100.0);
  }
  if (totals.prefetches_issued > 0) {
    std::fprintf(out, "  prefetch:        %.1f%% hit rate (%llu issued)\n",
                 static_cast<double>(totals.prefetch_hits) /
                     static_cast<double>(totals.prefetches_issued) * 100.0,
                 static_cast<unsigned long long>(totals.prefetches_issued));
  }
  if (totals.degraded_mode > 0) {
    std::fprintf(out, "  degraded cycles: %llu of %zu (sync flush, cache-line stores)\n",
                 static_cast<unsigned long long>(totals.degraded_mode), cycles.size());
  }
  if (totals.cache_fault_denials > 0 || totals.cache_fallback_workers > 0) {
    std::fprintf(out,
                 "  cache fallback:  %llu worker degradations, %llu pair denials, %s direct\n",
                 static_cast<unsigned long long>(totals.cache_fallback_workers),
                 static_cast<unsigned long long>(totals.cache_fault_denials),
                 FormatSiBytes(totals.cache_fallback_bytes).c_str());
  }
  if (totals.header_map_fault_probes > 0) {
    std::fprintf(out, "  faulted probes:  %llu header-map probes under an active fault\n",
                 static_cast<unsigned long long>(totals.header_map_fault_probes));
  }

  // Percentile digest of every histogram the registry accumulated (pause and
  // phase durations always; workload latencies when the workload records them).
  const auto summaries = vm->metrics().Summaries();
  if (!summaries.empty()) {
    std::fprintf(out, "  percentiles (ms):\n");
    TablePrinter table({"metric", "count", "p50", "p95", "p99", "max", "mean"});
    for (const auto& [name, s] : summaries) {
      if (s.count == 0) {
        continue;
      }
      table.AddRow({name, std::to_string(s.count),
                    FormatDouble(static_cast<double>(s.p50) / 1e6, 3),
                    FormatDouble(static_cast<double>(s.p95) / 1e6, 3),
                    FormatDouble(static_cast<double>(s.p99) / 1e6, 3),
                    FormatDouble(static_cast<double>(s.max) / 1e6, 3),
                    FormatDouble(s.mean / 1e6, 3)});
    }
    table.Print(out);
  }

  // Every adaptive-policy decision, with the controller's stated reason.
  const PolicyEngine* policy = vm->policy();
  if (policy != nullptr) {
    std::fprintf(out,
                 "  policy decisions: %zu over %llu pauses (%llu retreats)\n",
                 policy->decisions().size(),
                 static_cast<unsigned long long>(policy->pauses_seen()),
                 static_cast<unsigned long long>(policy->retreats()));
    if (!policy->decisions().empty()) {
      TablePrinter table({"pause", "knob", "from", "to", "reason"});
      for (const PolicyDecision& d : policy->decisions()) {
        table.AddRow({std::to_string(d.pause_id),
                      std::string(d.retreat ? "!" : "") + PolicyKnobName(d.knob),
                      FormatPolicyValue(d.knob, d.old_value),
                      FormatPolicyValue(d.knob, d.new_value), d.reason});
      }
      table.Print(out);
    }
  }

  // Flight recorder: retention + the last trigger / incident written.
  const FlightRecorder& fr = vm->flight_recorder();
  if (fr.enabled() && fr.pauses_recorded() > 0) {
    std::fprintf(out,
                 "  flight recorder: %llu pauses recorded (%zu retained), %llu incidents\n",
                 static_cast<unsigned long long>(fr.pauses_recorded()), fr.pauses().size(),
                 static_cast<unsigned long long>(fr.incidents()));
    if (fr.last_trigger().kind != FrTrigger::kNone) {
      std::fprintf(out, "    last trigger:  %s at pause %llu (observed %.3f ms)%s%s\n",
                   FrTriggerName(fr.last_trigger().kind),
                   static_cast<unsigned long long>(fr.last_trigger().pause_id),
                   static_cast<double>(fr.last_trigger().observed_ns) / 1e6,
                   fr.last_dump_path().empty() ? "" : " -> ",
                   fr.last_dump_path().c_str());
    }
  }

  // Allocation-site demographics: lifetime, tenuring rate, and NVM write
  // amplification per registered site (plus whatever landed untagged).
  const AllocSiteProfiler& profiler = vm->site_profiler();
  bool any_site = false;
  for (size_t i = 1; i < profiler.sites().size(); ++i) {
    any_site |= profiler.sites()[i].allocated_objects > 0;
  }
  if (any_site) {
    std::fprintf(out, "  allocation sites:\n");
    TablePrinter table({"site", "alloc", "survived", "promoted", "tenure%", "nvm-amp",
                        "dead", "life p50/p99"});
    for (const SiteStats& s : profiler.sites()) {
      if (s.allocated_objects == 0) {
        continue;
      }
      const HistogramSummary life = Summarize(s.lifetime);
      table.AddRow({s.name, FormatSiBytes(s.allocated_bytes),
                    FormatSiBytes(s.survived_bytes), FormatSiBytes(s.promoted_bytes),
                    FormatDouble(s.TenuringRate() * 100.0, 1),
                    FormatDouble(s.NvmWriteAmplification(), 2),
                    FormatSiBytes(s.died_bytes),
                    std::to_string(life.p50) + "/" + std::to_string(life.p99)});
    }
    table.Print(out);
  }
}

}  // namespace nvmgc
