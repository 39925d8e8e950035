// Adaptive GC policy engine: per-pause feedback tuning of the NVM
// optimizations.
//
// Between pauses the engine turns the previous pause's PolicySignals into a
// new GcTuning: it grows/shrinks the write-cache DRAM capacity (from cache
// overflow, direct-to-NVM fallback, and DRAM-pressure degradation), gates and
// resizes the header map (from probe-chain overflow rate and occupancy),
// toggles asynchronous flushing (from the steal-taint rate that already
// disables it per region), and adapts the prefetch distance and GC thread
// count (from the observed interleave and effective bandwidth against the
// BandwidthModel optimum).
//
// The controller is deterministic and guard-railed:
//  - bounded steps       — capacity knobs move by kStepFraction, the thread
//                          count by at most half a step per pause;
//  - cooldown windows    — a knob that just moved holds still for
//                          kCooldownPauses pauses (hysteresis against
//                          oscillation, separate thresholds for grow/shrink);
//  - hard clamps         — every value stays inside the ranges resolved at
//                          construction;
//  - instant retreat     — a degraded pause or a DRAM-pressure fault
//                          (pair-allocation denial, worker fallback) shrinks
//                          the cache and disables async flushing immediately,
//                          bypassing cooldowns, and blocks re-growth for a
//                          cooldown window — composing with the collector's
//                          degraded mode rather than fighting it.
//
// Every decision is recorded with a human-readable reason and surfaced three
// ways: the GcReport "policy decisions" table, policy.* gauges in the
// MetricsRegistry, and policy.* Chrome-trace counter tracks.

#ifndef NVMGC_SRC_POLICY_POLICY_ENGINE_H_
#define NVMGC_SRC_POLICY_POLICY_ENGINE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/gc/gc_options.h"
#include "src/nvm/bandwidth_model.h"
#include "src/nvm/device_profile.h"
#include "src/policy/policy_signals.h"

namespace nvmgc {

class GcTracer;
class MetricsRegistry;

enum class PolicyKnob : uint8_t {
  kGcThreads = 0,
  kWriteCacheBytes,
  kHeaderMapEnabled,
  kHeaderMapEntries,
  kAsyncFlush,
  kPrefetchWindow,
};
inline constexpr size_t kPolicyKnobCount = 6;

const char* PolicyKnobName(PolicyKnob knob);

// One controller decision: knob moved from old_value to new_value after
// `pause_id`, because `reason`. Booleans are encoded 0/1.
struct PolicyDecision {
  uint64_t pause_id = 0;
  PolicyKnob knob = PolicyKnob::kGcThreads;
  uint64_t old_value = 0;
  uint64_t new_value = 0;
  bool retreat = false;  // Guardrail decision (bypassed cooldown).
  std::string reason;
};

class PolicyEngine {
 public:
  // Controller pacing and clamp floors. These are fixed parameters of the
  // controller, not configuration.
  // Pauses observed before the first decision (the signal history warms up).
  static constexpr uint32_t kWarmupPauses = 1;
  // Minimum pauses between two consecutive changes of the same knob.
  static constexpr uint32_t kCooldownPauses = 1;
  // Multiplicative step for capacity knobs: grow multiplies by (1 + step),
  // shrink by (1 - step).
  static constexpr double kStepFraction = 0.5;
  // Floor of the adapted GC thread count; the ceiling is gc_threads.
  static constexpr uint32_t kMinGcThreads = 1;
  // Floor of the adapted write-cache capacity; the ceiling is the DRAM cache
  // arena, capped at heap/8.
  static constexpr size_t kMinWriteCacheBytes = 256 * 1024;

  // Resolves the clamp ranges from the validated `options` and the heap
  // geometry (`heap_arena_bytes` for the paper-default capacities,
  // `cache_arena_bytes` as the physical ceiling of the write cache) and
  // builds the initial tuning, which reproduces the static configuration.
  // `heap_profile` parameterizes the bandwidth model driving the thread-count
  // rule.
  PolicyEngine(const GcOptions& options, size_t heap_arena_bytes,
               size_t cache_arena_bytes, const DeviceProfile& heap_profile);

  // The tuning the next pause should run with (always resolved: capacities
  // and table sizes carry concrete values, never the 0 "keep" sentinels).
  const GcTuning& tuning() const { return tuning_; }

  // Feeds one pause's signals; updates the tuning and returns the number of
  // decisions made for the next pause.
  size_t OnPauseEnd(const PolicySignals& signals);

  const std::vector<PolicyDecision>& decisions() const { return decisions_; }
  uint64_t pauses_seen() const { return pauses_seen_; }
  uint64_t retreats() const { return retreats_; }

  // The decisions appended at or after decision index `from` — the per-pause
  // slice consumers like the flight recorder retain (`from` is the
  // decisions().size() observed at the previous pause end). Clamped, so a
  // stale index degrades to an empty slice rather than UB.
  std::vector<PolicyDecision> DecisionsSince(size_t from) const {
    return {decisions_.begin() +
                static_cast<ptrdiff_t>(std::min(from, decisions_.size())),
            decisions_.end()};
  }

  // Resolved clamp ranges (exposed for tests and the report).
  uint32_t min_threads() const { return kMinGcThreads; }
  uint32_t max_threads() const { return max_threads_; }
  size_t min_cache_bytes() const { return kMinWriteCacheBytes; }
  size_t max_cache_bytes() const { return max_cache_bytes_; }
  size_t min_hm_entries() const { return min_hm_entries_; }
  size_t max_hm_entries() const { return max_hm_entries_; }

  // Publishes the current tuning and decision counts as policy.* gauges.
  void ExportMetrics(MetricsRegistry* metrics) const;
  // Emits policy.* counter tracks at `now_ns` on the tracer's bound thread
  // (the collector's control track), one point per pause.
  void EmitTraceCounters(GcTracer* tracer, uint64_t now_ns) const;

 private:
  // True when `knob` may move at the current pause: warmup is over, the knob
  // is outside its cooldown window, and (for growth) no retreat is in force.
  bool Ready(PolicyKnob knob) const;
  void Decide(PolicyKnob knob, uint64_t old_value, uint64_t new_value, bool retreat,
              std::string reason);

  // Guardrail: returns true when it fired (normal rules are skipped then).
  bool MaybeRetreat(const PolicySignals& s);
  void DecideWriteCache(const PolicySignals& s);
  void DecideHeaderMap(const PolicySignals& s);
  void DecideAsyncFlush(const PolicySignals& s);
  void DecideGcThreads(const PolicySignals& s);
  void DecidePrefetch(const PolicySignals& s);

  GcOptions options_;
  BandwidthModel model_;
  GcTuning tuning_;

  // Resolved clamp ranges.
  uint32_t max_threads_ = 1;
  size_t max_cache_bytes_ = 0;
  size_t min_hm_entries_ = 16;
  size_t max_hm_entries_ = 16;

  uint64_t pauses_seen_ = 0;
  uint64_t current_pause_ = 0;  // Pause id being decided on.
  uint64_t retreats_ = 0;
  // Growth decisions are blocked while current_pause_ < retreat_until_.
  uint64_t retreat_until_ = 0;
  // Pause id of each knob's last change (0 = never changed).
  std::array<uint64_t, kPolicyKnobCount> last_change_{};
  size_t decisions_this_pause_ = 0;
  std::vector<PolicyDecision> decisions_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_POLICY_POLICY_ENGINE_H_
