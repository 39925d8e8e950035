// PolicySignals: the per-pause measurement snapshot the adaptive policy
// engine decides from.
//
// One PolicySignals is assembled right after every pause from the merged
// GcCycleStats and the DeviceTimeline's read-phase bandwidth samples. It is a
// plain value — no references into collector state — so the engine's decision
// function is a pure (signals, state) -> (tuning, decisions) step, which is
// what makes the controller deterministic and unit-testable with hand-built
// signal sequences.

#ifndef NVMGC_SRC_POLICY_POLICY_SIGNALS_H_
#define NVMGC_SRC_POLICY_POLICY_SIGNALS_H_

#include <cstddef>
#include <cstdint>

#include "src/gc/gc_stats.h"
#include "src/obs/device_timeline.h"

namespace nvmgc {

struct PolicySignals {
  uint64_t pause_id = 0;  // 1-based GC cycle ordinal.

  // The merged cycle the pause produced (header-map counters are per-pause
  // deltas; generational, durability and fault fields are zero when off).
  GcCycleStats cycle;

  // Fleet arbitration (all zero outside a FleetManager). Stall the bandwidth
  // arbiter injected into this tenant since the previous pause, over the
  // inter-pause application interval it accrued in.
  uint64_t fleet_stall_ns = 0;
  uint64_t fleet_interval_ns = 0;

  // Read-phase device behavior (means over the pause's timeline samples).
  double read_interleave = 0.0;   // Write share of the read-phase traffic.
  double read_mbps = 0.0;         // Observed read-direction bandwidth.
  double read_total_mbps = 0.0;   // Observed total bandwidth.
  double read_model_mbps = 0.0;   // Model ceiling under the observed mix.

  // --- Derived rates (all guard against zero denominators) ---
  // Survivor bytes that missed the cache: overflow / (staged + overflow).
  double cache_overflow_fraction() const;
  // Flushed-region share whose LIFO readiness was broken by stealing.
  double steal_taint_fraction() const;
  // Forwardings that fell back to the NVM header: overflows / (installs+overflows).
  double hm_overflow_rate() const;
  double prefetch_hit_rate() const;
  // Observed total bandwidth as a share of the model ceiling: ~1 means the
  // pause was device-bound, << 1 means CPU-bound.
  double bandwidth_utilization() const;
  // Share of the pause spent flushing and fencing for durability.
  double persist_stall_fraction() const;
  // Share of the inter-pause interval the fleet arbiter stalled this tenant.
  double fleet_stall_fraction() const;
};

// Assembles the signals for the pause `cycle` describes. `pause_id` is the
// 1-based cycle ordinal (the collector's gc_epoch); `timeline` may be null,
// leaving the read-phase device signals at zero.
PolicySignals CollectPolicySignals(const GcCycleStats& cycle, uint64_t pause_id,
                                   const DeviceTimeline* timeline);

}  // namespace nvmgc

#endif  // NVMGC_SRC_POLICY_POLICY_SIGNALS_H_
