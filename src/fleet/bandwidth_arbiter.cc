#include "src/fleet/bandwidth_arbiter.h"

#include <algorithm>

#include "src/util/check.h"

namespace nvmgc {

namespace {
// MB/s over a window of ns: bytes = mbps * 1e6 B/s * (window_ns / 1e9 s)
//                                 = mbps * window_ns / 1000.
uint64_t MbpsToBytes(double mbps, uint64_t window_ns) {
  if (mbps <= 0.0) {
    return 0;
  }
  return static_cast<uint64_t>(mbps * static_cast<double>(window_ns) / 1000.0);
}
}  // namespace

uint32_t BandwidthArbiter::AddTenant(QosTier tier, double budget_mbps) {
  Tenant t;
  t.tier = tier;
  t.budget_mbps = budget_mbps;
  tenants_.push_back(t);
  return static_cast<uint32_t>(tenants_.size() - 1);
}

uint64_t BandwidthArbiter::BudgetBytesPerWindow(uint32_t tenant) const {
  return MbpsToBytes(tenants_[tenant].budget_mbps, kWindowNs);
}

std::vector<uint64_t> BandwidthArbiter::EndWindow(const std::vector<uint64_t>& bytes) {
  NVMGC_CHECK(bytes.size() == tenants_.size());
  std::vector<uint64_t> stalls(tenants_.size(), 0);
  for (size_t i = 0; i < tenants_.size(); ++i) {
    Tenant& t = tenants_[i];
    if (t.budget_mbps <= 0.0 || t.tier == QosTier::kServing) {
      continue;
    }
    const double budget_bytes = static_cast<double>(BudgetBytesPerWindow(static_cast<uint32_t>(i)));
    const double over = static_cast<double>(bytes[i]) - kGrace * budget_bytes;
    if (over <= 0.0) {
      continue;
    }
    bool higher_tier_active = false;
    for (size_t j = 0; j < tenants_.size(); ++j) {
      if (j != i && tenants_[j].tier < t.tier && bytes[j] > 0) {
        higher_tier_active = true;
        break;
      }
    }
    if (!higher_tier_active) {
      continue;
    }
    // Pay back the overshoot at the budget rate: over bytes at budget_mbps
    // take over * 1000 / mbps ns to move legitimately.
    double stall_ns = over * 1000.0 / t.budget_mbps;
    if (t.tier == QosTier::kBackground) {
      stall_ns *= kBackgroundPenalty;
    }
    stall_ns = std::min(stall_ns, kMaxStallWindows * static_cast<double>(kWindowNs));
    stalls[i] = static_cast<uint64_t>(stall_ns + 0.5);
    ++t.stats.windows_throttled;
    t.stats.total_stall_ns += stalls[i];
  }
  return stalls;
}

}  // namespace nvmgc
