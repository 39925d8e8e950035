// Declarative fault injection for the simulated NVM/DRAM devices.
//
// Real Optane DIMMs do not degrade gracefully: published characterizations
// (Izraelevitz et al. 2019; Peng et al.'s system evaluation) report thermal
// throttling windows where sustained bandwidth collapses, WPQ/write-buffer
// drain stalls that freeze individual accesses for microseconds, and latency
// that is wildly sensitive to the concurrent workload mix. On the host side,
// the DRAM the write cache borrows can vanish under memory pressure. A
// collector aimed at production has to keep completing pauses — correctly —
// through all of that.
//
// A FaultPlan is a declarative, seeded schedule of fault windows over
// simulated time. A FaultInjector evaluates the plan on every
// MemoryDevice::Access (perturbing the charged cost) and on every write-cache
// region-pair allocation (denying DRAM staging during pressure windows).
// Everything is deterministic: stall decisions hash (seed, address, time)
// instead of consuming shared RNG state, so a plan replays identically
// regardless of host thread interleaving of the access that asks.
//
// The GC-side reactions live elsewhere: WriteCache degrades workers to
// direct-to-NVM copying when pair allocation is denied, and CopyCollector
// disables asynchronous flushing + non-temporal stores for pauses that start
// (or write back) inside a sustained-throttle window. See DESIGN.md
// "Fault injection & degraded mode".

#ifndef NVMGC_SRC_NVM_FAULT_INJECTOR_H_
#define NVMGC_SRC_NVM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nvm/access.h"

namespace nvmgc {

class MetricsRegistry;

enum class FaultKind : uint8_t {
  // Multiplies the cost of every access in the window (media retries,
  // mixed-workload latency cliffs).
  kLatencySpike,
  // Sustained bandwidth derate: the device delivers only `bandwidth_fraction`
  // of nominal throughput (thermal-throttle window). The collector treats an
  // active throttle window as the signal to enter degraded mode.
  kBandwidthThrottle,
  // Transient per-access stalls (WPQ drain, buffer-full backpressure): an
  // affected access pays `stall_ns`, doubling per bounded retry.
  kAccessStall,
  // Host DRAM pressure: write-cache region-pair allocations are denied, so GC
  // workers must fall back to direct-to-NVM survivor copying.
  kDramPressure,
};

struct FaultWindow {
  FaultKind kind = FaultKind::kLatencySpike;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;  // Exclusive.

  // kLatencySpike: cost multiplier (> 1).
  double cost_multiplier = 1.0;
  // kBandwidthThrottle: fraction of nominal bandwidth available (0 < f <= 1).
  double bandwidth_fraction = 1.0;
  // kAccessStall: per-access stall probability, base stall, and retry bound.
  double stall_probability = 0.0;
  uint64_t stall_ns = 0;
  uint32_t max_retries = 1;

  bool Contains(uint64_t now_ns) const { return now_ns >= start_ns && now_ns < end_ns; }
};

// A declarative, seeded schedule of fault windows. Windows may overlap; all
// active windows apply. The builder methods return *this for chaining.
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultWindow> windows;

  FaultPlan& AddLatencySpike(uint64_t start_ns, uint64_t end_ns, double multiplier);
  FaultPlan& AddThrottle(uint64_t start_ns, uint64_t end_ns, double bandwidth_fraction);
  FaultPlan& AddStalls(uint64_t start_ns, uint64_t end_ns, double probability,
                       uint64_t stall_ns, uint32_t max_retries);
  FaultPlan& AddDramPressure(uint64_t start_ns, uint64_t end_ns);

  // Deterministic randomized schedule over [0, horizon_ns). Every randomized
  // plan contains at least one sustained-throttle window and one DRAM-pressure
  // window opening at t=0 (so short runs are guaranteed to exercise both
  // degradation paths), plus a random assortment of spikes and stall windows.
  static FaultPlan Randomized(uint64_t seed, uint64_t horizon_ns);
};

// Counter snapshot (all monotonic since construction).
struct FaultStats {
  uint64_t perturbed_accesses = 0;  // Accesses whose cost any window changed.
  uint64_t spiked_accesses = 0;
  uint64_t throttled_accesses = 0;
  uint64_t stalls_injected = 0;
  uint64_t stall_retries = 0;    // Backoff rounds across all stalls.
  uint64_t stall_extra_ns = 0;   // Total simulated ns added by stalls.
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Returns the cost of `d` at `now_ns` given a nominal cost of
  // `base_cost_ns`, applying every active window. Thread-safe, deterministic
  // in (plan, now_ns, d.address).
  uint64_t PerturbCost(uint64_t now_ns, const AccessDescriptor& d, uint64_t base_cost_ns);

  // True when a kBandwidthThrottle window is active: the collector's signal
  // to run the pause degraded (synchronous, cache-line stores).
  bool ThrottleActive(uint64_t now_ns) const;
  // Product of active throttle fractions (1.0 when nominal).
  double BandwidthFraction(uint64_t now_ns) const;

  // DRAM-pressure gate for write-cache region-pair allocation: true while a
  // kDramPressure window is active. The write cache counts each denial it
  // takes in GcCycleStats::cache_fault_denials.
  bool DramPressureActive(uint64_t now_ns) const;

  // True when any window is active (used for fault-attribution counters).
  bool AnyFaultActive(uint64_t now_ns) const;

  FaultStats stats() const;
  const FaultPlan& plan() const { return plan_; }

  // Publishes the counter snapshot as gauges under "<prefix>.*"
  // (e.g. "fault.heap.stalls_injected").
  void ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const;

 private:
  // Deterministic Bernoulli + retry draw for stall windows.
  uint64_t StallDraw(uint64_t now_ns, uint64_t address) const;

  FaultPlan plan_;

  std::atomic<uint64_t> perturbed_accesses_{0};
  std::atomic<uint64_t> spiked_accesses_{0};
  std::atomic<uint64_t> throttled_accesses_{0};
  std::atomic<uint64_t> stalls_injected_{0};
  std::atomic<uint64_t> stall_retries_{0};
  std::atomic<uint64_t> stall_extra_ns_{0};
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_FAULT_INJECTOR_H_
