// Per-tenant bandwidth budget enforcement for one shared NVM device.
//
// The arbiter closes fixed accounting windows of simulated time. For each
// window it receives the bytes every tenant moved on the device and returns a
// per-tenant stall: simulated ns the tenant must idle before issuing more
// traffic (the FleetManager applies the stall by advancing the tenant's
// application clock). The policy, in priority order:
//
//   * A tenant with no budget (budget_mbps <= 0) is never throttled.
//   * Serving-tier tenants are never throttled: their budget is an
//     entitlement the lower tiers are throttled *toward*, not a cap.
//   * A batch/background tenant that moved more than
//     kGrace x budget pays back the overshoot at its budget rate:
//     stall = over_bytes / budget_rate, doubled for background
//     (kBackgroundPenalty) — and only when some strictly higher-priority
//     tenant actually competed in the window (nonzero bytes), because
//     throttling with no higher-priority demand would just idle the device.
//
// Budgets are strict contracts: every window counts as contended, however
// little the fleet moved, so the arbiter is not work-conserving.
//
// Pure simulated-time bookkeeping: no Vm or device dependencies, fully
// deterministic, unit-testable in isolation.

#ifndef NVMGC_SRC_FLEET_BANDWIDTH_ARBITER_H_
#define NVMGC_SRC_FLEET_BANDWIDTH_ARBITER_H_

#include <cstdint>
#include <vector>

#include "src/fleet/qos.h"

namespace nvmgc {

struct ArbiterTenantStats {
  uint64_t windows_throttled = 0;
  uint64_t total_stall_ns = 0;
};

class BandwidthArbiter {
 public:
  // Accounting window width in simulated ns.
  static constexpr uint64_t kWindowNs = 1'000'000;
  // Over-budget tolerance before a throttle: 1.10 = 10% slack, so tenants
  // riding exactly at budget are not flapped by bucket-boundary noise.
  static constexpr double kGrace = 1.10;
  // Background overshoot is paid back at this multiple of the base stall.
  static constexpr double kBackgroundPenalty = 2.0;
  // Stall ceiling, in windows, so a pathological burst cannot freeze a
  // tenant for the rest of the run.
  static constexpr double kMaxStallWindows = 8.0;

  // Registers a tenant; ids are assigned densely in call order and must match
  // the indices of the byte vectors handed to EndWindow.
  uint32_t AddTenant(QosTier tier, double budget_mbps);

  // Closes one accounting window; bytes[i] is tenant i's device traffic
  // during it. Returns the per-tenant stall in simulated ns.
  std::vector<uint64_t> EndWindow(const std::vector<uint64_t>& bytes);

  const ArbiterTenantStats& stats(uint32_t tenant) const { return tenants_[tenant].stats; }
  double budget_mbps(uint32_t tenant) const { return tenants_[tenant].budget_mbps; }

  // Budget converted to bytes per window (what EndWindow compares against).
  uint64_t BudgetBytesPerWindow(uint32_t tenant) const;

 private:
  struct Tenant {
    QosTier tier = QosTier::kBatch;
    double budget_mbps = 0.0;
    ArbiterTenantStats stats;
  };

  std::vector<Tenant> tenants_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_FLEET_BANDWIDTH_ARBITER_H_
