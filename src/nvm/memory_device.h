// Simulated memory device: the global arbiter that charges simulated time for
// every heap access. Its traffic statistics are read from the one record each
// access charges, the BandwidthLedger.
//
// This is the substitution point for real Optane hardware (see DESIGN.md §2):
// heap bytes physically live in host RAM, but all timing comes from the
// calibrated DeviceProfile + BandwidthModel. The arbiter couples concurrent
// logical threads through a shared mix estimate and an active-thread count,
// which is what makes the vanilla collector stop scaling at the write knee and
// the optimized collector keep scaling — emergently rather than by fiat.
//
// Threading contract: one host thread drives a device at a time. The
// collector steps its logical GC workers on the calling thread in
// simulated-clock order, and fleet tenants take turns the same way, so every
// traffic counter behind Access is single-writer (src/util/single_writer.h)
// and a charge takes no locked instruction. Concurrent Access calls stay free
// of data races but may lose counts.

#ifndef NVMGC_SRC_NVM_MEMORY_DEVICE_H_
#define NVMGC_SRC_NVM_MEMORY_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/nvm/access.h"
#include "src/nvm/bandwidth_ledger.h"
#include "src/nvm/bandwidth_model.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/persist_ledger.h"
#include "src/nvm/sim_clock.h"

namespace nvmgc {

class FaultInjector;
class MetricsRegistry;

class MemoryDevice {
 public:
  static constexpr uint32_t kMaxTenants = BandwidthLedger::kMaxTenants;
  // Address ranges BindTenantRange accepts per device.
  static constexpr size_t kMaxTenantRanges = 16;

  explicit MemoryDevice(DeviceProfile profile);

  // Charges `clock` for the access and returns the charged nanoseconds, in
  // O(1) single-writer work (see the threading contract above). When a fault
  // injector is attached, the nominal cost is perturbed by its active fault
  // windows before charging.
  uint64_t Access(SimClock* clock, const AccessDescriptor& d);

  // Nominal cost preview without charging, accounting, or fault perturbation
  // (used by tests/models).
  uint64_t CostNs(uint64_t now_ns, const AccessDescriptor& d) const;

  // --- Multi-tenant sharing (fleet mode) ---
  // Attributes the address range [base, base + bytes) to `tenant`: every
  // access landing in it charges that tenant's slot of the ledger.
  // Each Vm sharing the device binds its heap arena once at construction;
  // binding must finish before the range sees traffic (ranges are appended
  // lock-free for readers, but registration itself is not thread-safe).
  // Unbound addresses (and all traffic on a device with no bindings) belong
  // to tenant 0.
  void BindTenantRange(uint8_t tenant, uint64_t base, uint64_t bytes);
  uint8_t TenantFor(uint64_t address) const;
  // True once ranges from two or more distinct tenants are bound — only then
  // does the cross-tenant contention term enter CostNs, so single-Vm devices
  // behave exactly as before.
  bool multi_tenant() const { return multi_tenant_.load(std::memory_order_relaxed); }
  // Lifetime traffic attributed to `tenant`, read from the ledger (its settled
  // epochs plus the resident ones): O(ring size), meant for per-pause and
  // per-window reads, not per access.
  DeviceCounters tenant_counters(uint8_t tenant) const;

  // Fault injection: attach a (non-owned) injector whose plan perturbs every
  // subsequent access; pass nullptr to detach. The injector must outlive its
  // attachment.
  void AttachFaultInjector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const { return injector_.load(std::memory_order_acquire); }

  // Active-thread management: the runtime declares how many logical threads
  // are concurrently issuing traffic (GC workers during a pause, mutators
  // otherwise). RAII helper below.
  void AddActiveThreads(uint32_t n) { active_threads_.fetch_add(n, std::memory_order_relaxed); }
  void RemoveActiveThreads(uint32_t n) { active_threads_.fetch_sub(n, std::memory_order_relaxed); }
  uint32_t active_threads() const {
    const uint32_t t = active_threads_.load(std::memory_order_relaxed);
    return t == 0 ? 1 : t;
  }

  // Lifetime traffic over all tenants: the sum of tenant_counters().
  DeviceCounters counters() const;

  // Whole-run bandwidth series for the bandwidth figures: call StartRecording
  // before the traffic to record; RecordedSeries() then returns one entry per
  // ledger epoch (entry i covers [i, i + 1) * ledger().bucket_ns()). See
  // BandwidthLedger::StartRecording.
  void StartRecording() { ledger_.StartRecording(); }
  std::vector<DeviceCounters> RecordedSeries() const { return ledger_.RecordedSeries(); }

  // Instantaneous model outputs (for tests and monitors).
  MixState CurrentMix(uint64_t now_ns) const;
  double CurrentTotalBandwidthMbps(uint64_t now_ns) const;

  // The traffic ledger (the DeviceTimeline sampler drains its per-epoch
  // buckets into per-pause bandwidth series).
  const BandwidthLedger& ledger() const { return ledger_; }

  // Persistence state tracker (durability mode). Unconfigured (and thus
  // free — one relaxed load per write) until the runtime binds the arena via
  // persist().Configure(); see src/nvm/persist_ledger.h.
  PersistOrderingLedger& persist() { return persist_; }
  const PersistOrderingLedger& persist() const { return persist_; }

  // Publishes the lifetime traffic ledger as gauges under
  // "<prefix>.lifetime.*" (read_bytes, write_bytes, nt_write_bytes, read_ops,
  // write_ops) — e.g. "device.heap.lifetime.read_bytes".
  void ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const;

  const DeviceProfile& profile() const { return model_.profile(); }
  const BandwidthModel& model() const { return model_; }
  DeviceKind kind() const { return model_.profile().kind; }

 private:
  // One bound tenant address range. A fixed array + atomic count keeps
  // TenantFor lock-free for the access hot path.
  struct TenantRange {
    uint8_t tenant = 0;
    uint64_t base = 0;
    uint64_t end = 0;
  };
  // Active-thread counts whose ThreadTerms are precomputed at construction;
  // larger counts compute theirs per access.
  static constexpr uint32_t kCachedThreadTerms = 64;

  ThreadTerms TermsFor(uint32_t threads) const {
    return threads <= kCachedThreadTerms ? thread_terms_[threads] : model_.TermsFor(threads);
  }

  // CostNs for the ledger epoch `epoch`; `tenant` is only read on a
  // multi-tenant device.
  uint64_t CostAt(uint64_t epoch, const AccessDescriptor& d, uint8_t tenant) const;

  BandwidthModel model_;
  // Indexed by active-thread count (entry 0 repeats entry 1: a count of 0
  // reads as 1).
  ThreadTerms thread_terms_[kCachedThreadTerms + 1];
  BandwidthLedger ledger_;
  PersistOrderingLedger persist_;

  std::atomic<uint32_t> active_threads_{0};

  TenantRange tenant_ranges_[kMaxTenantRanges];
  std::atomic<uint32_t> tenant_range_count_{0};
  std::atomic<bool> multi_tenant_{false};

  std::atomic<FaultInjector*> injector_{nullptr};
};

// Declares `n` active threads on `device` for the current scope.
class ScopedDeviceActivity {
 public:
  ScopedDeviceActivity(MemoryDevice* device, uint32_t n) : device_(device), n_(n) {
    device_->AddActiveThreads(n_);
  }
  ~ScopedDeviceActivity() { device_->RemoveActiveThreads(n_); }

  ScopedDeviceActivity(const ScopedDeviceActivity&) = delete;
  ScopedDeviceActivity& operator=(const ScopedDeviceActivity&) = delete;

 private:
  MemoryDevice* device_;
  uint32_t n_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_MEMORY_DEVICE_H_
