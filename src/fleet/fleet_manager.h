// FleetManager: N tenant Vms co-located on one shared NVM device.
//
// The manager owns the shared MemoryDevice and the tenant Vms, and runs their
// step-wise workload drivers under a cooperative simulated-time scheduler:
// each iteration advances the tenant whose clock is furthest behind, so the
// tenants' traffic interleaves in the device's ledger epochs and the
// contention model (BandwidthModel::TenantShareFraction) sees realistic
// co-occupancy. Host execution is serial — concurrency exists in simulated
// time only, which keeps fleet runs deterministic.
//
// Two coordination mechanisms, both optional (the uncoordinated baseline of
// bench_fleet turns them off):
//
//   Bandwidth arbitration   At every accounting-window boundary the manager
//                           reads per-tenant device counters and asks the
//                           BandwidthArbiter for stalls; a stalled tenant's
//                           clock is advanced, modeling budget-enforcement
//                           throttling (see bandwidth_arbiter.h for policy).
//   Pause scheduling        The manager implements GcCoordinator: tenant Vms
//                           report every pause's write-back drain window, and
//                           a tenant about to run a major (write-back-heavy)
//                           pause inside a co-tenant's drain is deferred
//                           (see pause_scheduler.h).
//
// Observability: each tenant Vm keeps its own registry, tracer and flight
// recorder. The fleet-level numbers have one owner each: the arbiter's
// per-tenant stats (stall ns, throttled windows) and this manager's pause
// deferral totals (pauses_deferred, pause_defer_ns).

#ifndef NVMGC_SRC_FLEET_FLEET_MANAGER_H_
#define NVMGC_SRC_FLEET_FLEET_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/bandwidth_arbiter.h"
#include "src/fleet/pause_scheduler.h"
#include "src/fleet/qos.h"
#include "src/fleet/tenant_workload.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/runtime/gc_coordinator.h"
#include "src/runtime/vm.h"

namespace nvmgc {

struct FleetOptions {
  // Profile of the one shared heap device every tenant binds to.
  DeviceProfile device;
  // Coordination switches (both off = the uncoordinated baseline).
  bool arbitration = true;
  bool pause_coordination = true;

  FleetOptions();  // Defaults device to MakeOptaneProfile().
};

struct FleetTenantSpec {
  std::string name;
  QosTier tier = QosTier::kBatch;
  // Device-bandwidth budget (MB/s); <= 0 = unlimited (never throttled).
  double bandwidth_budget_mbps = 0.0;
  // Vm configuration. The manager overrides shared_heap_device, tenant_id
  // and tenant_label; heap.heap_device must match the fleet device's kind.
  VmOptions vm;
};

class FleetManager : public GcCoordinator {
 public:
  explicit FleetManager(const FleetOptions& options);
  ~FleetManager() override;

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  // Adds a tenant Vm; returns its dense tenant id (also its index). All
  // tenants must be added before Run. At most MemoryDevice::kMaxTenants.
  uint32_t AddTenant(const FleetTenantSpec& spec);

  // Installs the tenant's workload. Drivers need the Vm, so the pattern is:
  //   id = AddTenant(spec);
  //   SetDriver(id, std::make_unique<ServingDriver>(&fleet.vm(id), cfg));
  void SetDriver(uint32_t tenant, std::unique_ptr<TenantDriver> driver);

  // Runs every driver to completion (or until all clocks pass `deadline_ns`),
  // co-scheduled in simulated time.
  void Run(uint64_t deadline_ns = UINT64_MAX);

  // --- GcCoordinator (called by tenant Vms at pause boundaries) ---
  uint64_t OnPauseRequested(uint32_t tenant, GcKind kind, uint64_t now_ns) override;
  void OnPauseFinished(uint32_t tenant, GcKind kind, uint64_t start_ns, uint64_t end_ns,
                       uint64_t writeback_ns) override;

  // --- Accessors ---
  size_t tenant_count() const { return tenants_.size(); }
  Vm& vm(uint32_t tenant) { return *tenants_[tenant].vm; }
  const Vm& vm(uint32_t tenant) const { return *tenants_[tenant].vm; }
  const std::string& tenant_name(uint32_t tenant) const { return tenants_[tenant].name; }
  QosTier tenant_tier(uint32_t tenant) const { return tenants_[tenant].tier; }
  MemoryDevice& device() { return *device_; }
  const BandwidthArbiter& arbiter() const { return arbiter_; }
  const FleetOptions& options() const { return options_; }
  // Pauses the scheduler deferred, and the simulated ns they were deferred by.
  uint64_t pauses_deferred() const { return pauses_deferred_; }
  uint64_t pause_defer_ns() const { return pause_defer_ns_; }

 private:
  struct Tenant {
    std::string name;
    QosTier tier = QosTier::kBatch;
    std::unique_ptr<Vm> vm;
    std::unique_ptr<TenantDriver> driver;
    // Device-counter watermark at the last closed arbiter window.
    uint64_t window_bytes_mark = 0;
  };

  // Closes arbiter accounting windows up to the fleet's lagging clock and
  // applies the resulting stalls.
  void CloseWindowsUpTo(uint64_t fleet_now_ns);

  FleetOptions options_;
  std::unique_ptr<MemoryDevice> device_;
  std::vector<Tenant> tenants_;
  BandwidthArbiter arbiter_;
  FleetPauseScheduler pause_scheduler_;
  uint64_t window_start_ns_ = 0;
  uint64_t pauses_deferred_ = 0;
  uint64_t pause_defer_ns_ = 0;
  bool ran_ = false;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_FLEET_FLEET_MANAGER_H_
