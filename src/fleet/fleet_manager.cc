#include "src/fleet/fleet_manager.h"

#include <algorithm>

#include "src/util/check.h"

namespace nvmgc {

FleetOptions::FleetOptions() : device(MakeOptaneProfile()) {}

FleetManager::FleetManager(const FleetOptions& options)
    : options_(options),
      device_(std::make_unique<MemoryDevice>(options.device)) {}

FleetManager::~FleetManager() {
  // Tenant Vms hold raw pointers to this manager (GcCoordinator) and to the
  // shared device; detach before members destruct under them.
  for (Tenant& t : tenants_) {
    if (t.vm != nullptr) {
      t.vm->set_gc_coordinator(nullptr);
    }
  }
  tenants_.clear();
}

uint32_t FleetManager::AddTenant(const FleetTenantSpec& spec) {
  NVMGC_CHECK_MSG(!ran_, "AddTenant after Run: build the whole fleet first");
  NVMGC_CHECK_MSG(tenants_.size() < MemoryDevice::kMaxTenants,
                  "fleet exceeds MemoryDevice::kMaxTenants");
  const uint32_t id = static_cast<uint32_t>(tenants_.size());
  VmOptions vm_options = spec.vm;
  vm_options.shared_heap_device = device_.get();
  vm_options.tenant_id = id;
  vm_options.tenant_label = spec.name;
  NVMGC_CHECK_MSG(vm_options.heap.heap_device == device_->kind(),
                  "tenant heap device kind does not match the fleet device");

  Tenant tenant;
  tenant.name = spec.name;
  tenant.tier = spec.tier;
  tenant.vm = std::make_unique<Vm>(vm_options);
  if (options_.pause_coordination) {
    tenant.vm->set_gc_coordinator(this);
  }
  tenants_.push_back(std::move(tenant));
  const uint32_t arbiter_id = arbiter_.AddTenant(spec.tier, spec.bandwidth_budget_mbps);
  NVMGC_CHECK(arbiter_id == id);
  return id;
}

void FleetManager::SetDriver(uint32_t tenant, std::unique_ptr<TenantDriver> driver) {
  tenants_[tenant].driver = std::move(driver);
}

void FleetManager::Run(uint64_t deadline_ns) {
  NVMGC_CHECK_MSG(!tenants_.empty(), "Run on an empty fleet");
  for (const Tenant& t : tenants_) {
    NVMGC_CHECK_MSG(t.driver != nullptr, "tenant without a driver: call SetDriver first");
  }
  ran_ = true;
  for (;;) {
    // Cooperative scheduling: advance the most-lagging unfinished tenant so
    // all tenant clocks move forward together and their traffic shares
    // ledger epochs.
    int pick = -1;
    uint64_t min_ns = UINT64_MAX;
    for (size_t i = 0; i < tenants_.size(); ++i) {
      if (tenants_[i].driver->Done()) {
        continue;
      }
      const uint64_t now = tenants_[i].vm->now_ns();
      if (now < min_ns) {
        min_ns = now;
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0 || min_ns >= deadline_ns) {
      break;
    }
    tenants_[static_cast<size_t>(pick)].driver->Step();
    if (options_.arbitration) {
      // Account windows against the fleet's lagging edge: a window only
      // closes once every unfinished tenant has moved past it, so each
      // tenant's traffic for the window is complete when it is judged.
      uint64_t lagging = UINT64_MAX;
      for (const Tenant& t : tenants_) {
        if (!t.driver->Done()) {
          lagging = std::min(lagging, t.vm->now_ns());
        }
      }
      if (lagging != UINT64_MAX) {
        CloseWindowsUpTo(lagging);
      }
    }
  }
}

void FleetManager::CloseWindowsUpTo(uint64_t fleet_now_ns) {
  while (window_start_ns_ + BandwidthArbiter::kWindowNs <= fleet_now_ns) {
    std::vector<uint64_t> bytes(tenants_.size(), 0);
    for (size_t i = 0; i < tenants_.size(); ++i) {
      const uint64_t total =
          device_->tenant_counters(static_cast<uint8_t>(i)).total_bytes();
      bytes[i] = total - tenants_[i].window_bytes_mark;
      tenants_[i].window_bytes_mark = total;
    }
    const std::vector<uint64_t> stalls = arbiter_.EndWindow(bytes);
    for (size_t i = 0; i < stalls.size(); ++i) {
      if (stalls[i] > 0) {
        // Simulated-time throttling: the tenant idles out its stall before
        // it may issue more traffic.
        tenants_[i].vm->clock().Advance(stalls[i]);
        tenants_[i].vm->NoteFleetStall(stalls[i]);
      }
    }
    window_start_ns_ += BandwidthArbiter::kWindowNs;
  }
}

uint64_t FleetManager::OnPauseRequested(uint32_t tenant, GcKind kind, uint64_t now_ns) {
  if (!options_.pause_coordination) {
    return 0;
  }
  const uint64_t defer_ns = pause_scheduler_.DeferNs(tenant, kind, now_ns);
  if (defer_ns > 0) {
    ++pauses_deferred_;
    pause_defer_ns_ += defer_ns;
  }
  return defer_ns;
}

void FleetManager::OnPauseFinished(uint32_t tenant, GcKind kind, uint64_t start_ns,
                                   uint64_t end_ns, uint64_t writeback_ns) {
  (void)kind;
  pause_scheduler_.OnPauseFinished(tenant, start_ns, end_ns, writeback_ns);
}

}  // namespace nvmgc
