// GC flight recorder: always-on, bounded-memory retention of the last N
// pauses of rich context — per-phase durations, the full per-pause counter
// set (the GcCycleStats fields under GcPauseMetricNames(), persist.* and
// device.* included), policy decisions, degraded/fault state, per-pause NVM
// bandwidth samples, and per-allocation-site demographics — dumped as a
// self-contained incident file the moment an anomaly trigger fires, so tail
// pauses can be attributed after the fact instead of reconstructed.
//
// Triggers (first match wins, evaluated per pause):
//   pause_threshold    pause_ns > FlightRecorderOptions::pause_threshold_ns
//   p99_outlier        pause_ns > kP99Multiplier x trailing-window p99
//   degraded           the pause ran in degraded mode (fault throttling)
//   retreat            the policy engine took a retreat decision this pause
//                      (includes the durability fence-stall retreat)
//   survivor_overflow  survivors promoted early because survivor space filled
//                      (the overflow bytes go in the trigger's detail)
//   explicit           Vm::DumpFlightRecord()
//   crash              CrashInjector captured a power-cut image
//
// An incident is two files in dump_dir: `incident-<seq>.json` (schema
// nvmgc.incident.v1: trigger, retained pauses with full context, cumulative
// per-site demographics) and `incident-<seq>.trace.json` (Chrome trace
// synthesized from the recorder's own retained data — loads in Perfetto even
// when VmOptions::trace_gc was off). Decode/validate with
// scripts/fr_analyze.py.
//
// Threading & cost: the recorder is fed from the control thread at pause end
// and is pure host-side bookkeeping — it never touches MemoryDevice, so it
// charges zero *simulated* time by construction; the ≤3% bound CI enforces is
// on host wall-clock (bench_flight_recorder). Memory is bounded by
// kRetainPauses plus a fixed trailing pause-time window.

#ifndef NVMGC_SRC_OBS_FLIGHT_RECORDER_H_
#define NVMGC_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/gc/gc_stats.h"
#include "src/obs/alloc_site.h"
#include "src/obs/device_timeline.h"
#include "src/policy/policy_engine.h"

namespace nvmgc {

struct FlightRecorderOptions {
  // The recorder is always-on by default; `false` turns RecordPause into a
  // no-op (the overhead-bench control arm).
  bool enabled = true;
  // Absolute pause-duration trigger in simulated ns; 0 disables.
  uint64_t pause_threshold_ns = 0;
  // Where incident files go. Empty = record but never auto-dump (explicit
  // Dump calls with a directory override still work).
  std::string dump_dir;
  // Tenant tag for fleet runs: non-empty makes incident files
  // `incident-<tenant>-<seq>.json` (instead of `incident-<seq>.json`) and
  // adds a "tenant" field to the incident JSON, so co-tenant Vms dumping
  // into one directory never collide. Vm fills this from its tenant
  // label/id when running on a shared heap device.
  std::string tenant;
};

enum class FrTrigger : uint8_t {
  kNone,
  kPauseThreshold,
  kP99Outlier,
  kDegraded,
  kRetreat,
  kSurvivorOverflow,
  kExplicit,
  kCrash,
};

const char* FrTriggerName(FrTrigger trigger);

struct FrTriggerInfo {
  FrTrigger kind = FrTrigger::kNone;
  uint64_t pause_id = 0;
  uint64_t observed_ns = 0;   // The triggering pause's duration.
  uint64_t threshold_ns = 0;  // The bound it crossed (0 for state triggers).
  std::string detail;
};

// Everything the recorder retains about one pause. The incident's per-pause
// "kind", "degraded" and "retreat" keys are derived at dump time from
// stats.is_major, stats.degraded_mode and the decisions' retreat flags.
struct FlightPauseRecord {
  uint64_t pause_id = 0;
  GcCycleStats stats;  // Serialized through the stable dotted names at dump.
  std::vector<PolicyDecision> decisions;   // Decisions made at this pause end.
  std::vector<TimelineSample> timeline;    // This pause's bandwidth samples.
  std::vector<SitePauseDelta> sites;       // Per-site demographics of the pause.
};

class FlightRecorder {
 public:
  // Ring depth: pauses of context an incident ships with.
  static constexpr size_t kRetainPauses = 32;
  // Relative trigger: fire when pause_ns exceeds this multiple of the
  // trailing-window p99, once the window holds kP99MinHistory prior pauses.
  static constexpr double kP99Multiplier = 3.0;
  static constexpr size_t kP99MinHistory = 16;
  // Auto-dump budget per recorder; explicit/crash dumps are not counted.
  static constexpr size_t kMaxAutoDumps = 4;

  explicit FlightRecorder(FlightRecorderOptions options);

  // Control thread, once per pause end. Evaluates the trigger table and, when
  // one fires with dump_dir configured and auto-dump budget left, writes an
  // incident. Returns the trigger that fired (kNone otherwise).
  FrTrigger RecordPause(FlightPauseRecord record);

  // Writes an incident dump now (explicit / crash paths; also used
  // internally by RecordPause). `dir_override` replaces the configured
  // dump_dir when non-empty. Returns the incident file path, or "" when the
  // recorder is disabled, has no retained pauses, or the write failed.
  std::string Dump(FrTrigger trigger, const std::string& dir_override = "");

  const std::deque<FlightPauseRecord>& pauses() const { return pauses_; }
  uint64_t pauses_recorded() const { return pauses_recorded_; }
  uint64_t incidents() const { return incidents_; }
  const FrTriggerInfo& last_trigger() const { return last_trigger_; }
  const std::string& last_dump_path() const { return last_dump_path_; }
  bool enabled() const { return options_.enabled; }
  const FlightRecorderOptions& options() const { return options_; }

  // Trailing-window p99 of pause durations (0 with an empty window).
  uint64_t TrailingP99() const;

  // Cumulative site table serialized into incidents (set once at wiring).
  void set_site_profiler(const AllocSiteProfiler* profiler) { site_profiler_ = profiler; }

 private:
  static constexpr size_t kTrailingWindow = 128;

  FrTriggerInfo Evaluate(const FlightPauseRecord& record) const;
  bool WriteIncident(const std::string& dir, const FrTriggerInfo& trigger,
                     std::string* out_path);
  std::string SerializeIncident(const FrTriggerInfo& trigger,
                                const std::string& trace_file) const;
  std::string SerializeTrace() const;

  FlightRecorderOptions options_;
  const AllocSiteProfiler* site_profiler_ = nullptr;
  std::deque<FlightPauseRecord> pauses_;
  std::deque<uint64_t> trailing_pause_ns_;
  uint64_t pauses_recorded_ = 0;
  uint64_t incidents_ = 0;       // All dumps written, explicit included.
  uint64_t auto_dumps_ = 0;      // Trigger-initiated dumps (kMaxAutoDumps budget).
  uint64_t next_incident_seq_ = 0;
  FrTriggerInfo last_trigger_;
  std::string last_dump_path_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_OBS_FLIGHT_RECORDER_H_
