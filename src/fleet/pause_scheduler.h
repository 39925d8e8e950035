// Fleet GC pause scheduling: stagger co-located write-back storms.
//
// The pathology (motivated by the paper's write-back analysis): a major
// cycle's write-back floods the shared device's write path, and Optane's
// mixed-traffic collapse means a co-tenant pausing *during* that drain pays
// the collapsed-bandwidth price for its whole evacuation. The scheduler
// tracks each tenant's most recent write-back drain window and tells a
// tenant requesting a write-back-heavy (major) pause to defer — run
// application code a little longer — until the co-tenant's drain has passed.
//
// Deferrals are bounded (kMaxDeferNs): the requesting tenant's heap is near
// exhaustion, so the pause can be delayed, not denied. Minor pauses (young
// evacuations, mostly DRAM-side in generational heaps) are never deferred:
// they barely touch the shared device.
//
// Pure simulated-time bookkeeping; deterministic; no Vm dependencies.

#ifndef NVMGC_SRC_FLEET_PAUSE_SCHEDULER_H_
#define NVMGC_SRC_FLEET_PAUSE_SCHEDULER_H_

#include <cstdint>
#include <map>

#include "src/gc/gc_stats.h"

namespace nvmgc {

class FleetPauseScheduler {
 public:
  // Deferral ceiling per pause request.
  static constexpr uint64_t kMaxDeferNs = 2'000'000;
  // Defer when the request lands within this margin *before* a drain window
  // too: co-tenant clocks are only loosely synchronized, so a pause that
  // would start just ahead of a known drain would still overlap it.
  static constexpr uint64_t kMarginNs = 100'000;

  // Records tenant's completed pause: its write-back drain window is the
  // final `writeback_ns` of [start_ns, end_ns).
  void OnPauseFinished(uint32_t tenant, uint64_t start_ns, uint64_t end_ns,
                       uint64_t writeback_ns);

  // Returns how long `tenant` should defer a pause of `kind` requested at
  // `now_ns` (0 = clear to pause). Never counts the tenant's own windows.
  uint64_t DeferNs(uint32_t tenant, GcKind kind, uint64_t now_ns) const;

 private:
  struct DrainWindow {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  std::map<uint32_t, DrainWindow> last_drain_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_FLEET_PAUSE_SCHEDULER_H_
