#include "src/fleet/pause_scheduler.h"

#include <algorithm>

namespace nvmgc {

void FleetPauseScheduler::OnPauseFinished(uint32_t tenant, uint64_t start_ns, uint64_t end_ns,
                                          uint64_t writeback_ns) {
  if (writeback_ns == 0) {
    return;  // Nothing drained; no window to avoid.
  }
  DrainWindow w;
  w.end_ns = end_ns;
  w.start_ns = end_ns - std::min(writeback_ns, end_ns - start_ns);
  last_drain_[tenant] = w;
}

uint64_t FleetPauseScheduler::DeferNs(uint32_t tenant, GcKind kind, uint64_t now_ns) const {
  if (kind == GcKind::kMinor) {
    return 0;
  }
  uint64_t defer = 0;
  for (const auto& [other, w] : last_drain_) {
    if (other == tenant) {
      continue;
    }
    // Overlap test with a leading margin: defer when `now` falls inside
    // [start - margin, end) of a co-tenant's drain.
    if (now_ns + kMarginNs >= w.start_ns && now_ns < w.end_ns) {
      defer = std::max(defer, w.end_ns - now_ns);
    }
  }
  return std::min(defer, kMaxDeferNs);
}

}  // namespace nvmgc
