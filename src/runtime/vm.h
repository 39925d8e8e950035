// The virtual machine facade: devices + heap + collector + mutators + roots.
//
// A Vm is the analog of one JVM process: it owns the simulated DRAM/NVM
// devices, the region heap, the collector, the root-handle
// table, and the single simulated application clock that all mutators share.
// Workloads allocate through Mutator and read time through now_ns(); every
// reported number (GC pause, application time, request latency) is simulated.

#ifndef NVMGC_SRC_RUNTIME_VM_H_
#define NVMGC_SRC_RUNTIME_VM_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/gc/copy_collector.h"
#include "src/gc/gc_options.h"
#include "src/heap/heap.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/sim_clock.h"
#include "src/obs/alloc_site.h"
#include "src/obs/device_timeline.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/policy/policy_engine.h"
#include "src/util/check.h"

namespace nvmgc {

class GcCoordinator;
class Mutator;

struct VmOptions {
  // Heap geometry. With gc.generational.enabled the Vm derives the young-
  // generation split before constructing the heap: eden_regions and the
  // survivor quota come from GenerationalOptions, and dram_cache_regions
  // grows by the young budget so write-cache staging capacity is preserved.
  HeapConfig heap;
  GcOptions gc;
  // Observability: record GC phase spans into the tracer (off by default —
  // metrics are always on, tracing costs a ring-buffer write per span).
  bool trace_gc = false;
  // GC flight recorder (always-on by default; see src/obs/flight_recorder.h).
  // Set flight_recorder.dump_dir to enable anomaly-triggered incident dumps.
  FlightRecorderOptions flight_recorder;

  // --- Multi-tenant fleet mode (see src/fleet/fleet_manager.h) ---
  // When set, the Vm runs against this externally owned heap device instead
  // of creating a private one, and binds its heap arena to `tenant_id` on it
  // so the device attributes traffic and contention per tenant. The device
  // must outlive the Vm and match heap.heap_device's kind. Durability mode is
  // single-tenant (the persist ledger tracks one arena) and is rejected in
  // combination with a shared device.
  MemoryDevice* shared_heap_device = nullptr;
  // Tenant identity on the shared device: id < MemoryDevice::kMaxTenants,
  // label used for traces and flight-recorder incident names.
  uint32_t tenant_id = 0;
  std::string tenant_label;
};

// A stable index into the VM's root table.
using RootHandle = size_t;

class Vm {
 public:
  explicit Vm(const VmOptions& options);
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // Mutator lifecycle. Mutators are owned by the Vm.
  Mutator* CreateMutator();

  // --- GC roots (the analog of thread stacks / globals) ---
  RootHandle NewRoot(Address value = kNullAddress);
  void SetRoot(RootHandle handle, Address value);
  // Inline: workloads resolve a root on every simulated cache-missing access.
  Address GetRoot(RootHandle handle) const {
    NVMGC_CHECK(handle < root_cells_.size() && root_active_[handle]);
    return root_cells_[handle];
  }
  void ReleaseRoot(RootHandle handle);
  // Pointers to every active root cell, for a collection to update in place.
  // They stay valid until the next NewRoot, which may grow (and so move) the
  // root table.
  std::vector<Address*> RootSlots();

  // Triggers a stop-the-world collection immediately. The no-argument form
  // picks the kind: minor by default, escalated to major on a generational
  // heap once free regions fall below a quarter of the heap. When the heap is
  // still running low afterwards, a concurrent-cycle analog reclaims
  // wholly-dead old (and large-object) regions (see src/gc/old_reclaim.h).
  GcCycleStats CollectNow();
  GcCycleStats CollectNow(GcKind kind);

  uint64_t old_reclaim_count() const { return old_reclaim_count_; }

  // Fleet pause coordination: when set, CollectNow consults the coordinator
  // before pausing (it may defer the pause in simulated time) and reports
  // every finished pause. The coordinator must outlive the Vm; pass nullptr
  // to detach.
  void set_gc_coordinator(GcCoordinator* coordinator) { coordinator_ = coordinator; }
  uint32_t tenant_id() const { return options_.tenant_id; }
  // Fleet bandwidth arbitration: records `ns` of simulated stall the arbiter
  // injected into this tenant. The next pause's PolicySignals carry the
  // accumulated stall (as a fraction of the inter-pause interval), letting
  // the adaptive policy engine shed GC threads while the tenant is throttled.
  void NoteFleetStall(uint64_t ns) { fleet_stall_accum_ += ns; }
  uint64_t fleet_stall_ns() const { return fleet_stall_accum_; }

  // --- Accessors ---
  Heap& heap() { return *heap_; }
  CopyCollector& collector() { return *collector_; }
  const GcStats& gc_stats() const { return collector_->stats(); }
  MemoryDevice& heap_device() { return *heap_device_; }
  MemoryDevice& dram_device() { return *dram_device_; }
  SimClock& clock() { return clock_; }
  const VmOptions& options() const { return options_; }

  // --- Observability ---
  // The metrics registry holds a per-pause snapshot and lifetime aggregates
  // for every collection this Vm ran; lifetime device/cache/header-map/fault
  // gauges are refreshed at each pause boundary (see src/obs/metrics.h).
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  // The tracer records phase spans when options().trace_gc is set.
  GcTracer& tracer() { return *tracer_; }
  const GcTracer& tracer() const { return *tracer_; }
  // The heap device's per-pause bandwidth timeline (always sampled; a pause
  // adds a handful of 150 us samples, so the cost is negligible).
  DeviceTimeline& timeline() { return *timeline_; }
  const DeviceTimeline& timeline() const { return *timeline_; }
  // The adaptive policy engine, or nullptr when options().gc.adaptive_policy
  // is false. When present, every CollectNow() feeds it the pause's signals
  // and applies the retuned GcTuning before the next pause.
  PolicyEngine* policy() { return policy_.get(); }
  const PolicyEngine* policy() const { return policy_.get(); }
  // The allocation-site profiler (always on). Register sites here and pass
  // the id in AllocRequest::site to get per-site lifetime demographics.
  AllocSiteProfiler& site_profiler() { return *site_profiler_; }
  const AllocSiteProfiler& site_profiler() const { return *site_profiler_; }
  // Shorthand for site_profiler().RegisterSite().
  AllocSiteId RegisterAllocSite(std::string_view name) {
    return site_profiler_->RegisterSite(name);
  }
  // The GC flight recorder (always on unless options disabled it).
  FlightRecorder& flight_recorder() { return *flight_rec_; }
  const FlightRecorder& flight_recorder() const { return *flight_rec_; }
  // Explicitly dumps the retained flight record as an incident file. `dir`
  // overrides options().flight_recorder.dump_dir when non-empty. Returns the
  // incident path, or "" when nothing was recorded / no directory is known.
  std::string DumpFlightRecord(const std::string& dir = "");

  uint64_t now_ns() const { return clock_.now_ns(); }
  // Application time excluding GC pauses.
  uint64_t app_time_ns() const { return clock_.now_ns() - collector_->stats().total_pause_ns(); }
  uint64_t gc_time_ns() const { return collector_->stats().total_pause_ns(); }
  size_t gc_count() const { return collector_->stats().gc_count(); }

 private:
  friend class Mutator;

  // Refreshes lifetime gauges (device ledgers, cache occupancy, header-map
  // and fault-injector counters) in the metrics registry.
  void ExportLifetimeMetrics();

  VmOptions options_;
  // Owned when options_.shared_heap_device is null; heap_device_ always
  // points at the device in use (owned or shared).
  std::unique_ptr<MemoryDevice> owned_heap_device_;
  MemoryDevice* heap_device_ = nullptr;
  std::unique_ptr<MemoryDevice> dram_device_;
  std::unique_ptr<Heap> heap_;
  std::unique_ptr<CopyCollector> collector_;
  std::unique_ptr<GcTracer> tracer_;
  std::unique_ptr<DeviceTimeline> timeline_;
  std::unique_ptr<PolicyEngine> policy_;
  std::unique_ptr<AllocSiteProfiler> site_profiler_;
  std::unique_ptr<FlightRecorder> flight_rec_;
  MetricsRegistry metrics_;
  SimClock clock_;

  // Policy decisions already handed to the flight recorder (index into
  // policy_->decisions()), so each pause record carries only its own.
  size_t policy_decisions_seen_ = 0;
  GcCoordinator* coordinator_ = nullptr;
  // Fleet-arbiter stall bookkeeping for PolicySignals (see NoteFleetStall).
  uint64_t fleet_stall_accum_ = 0;
  uint64_t fleet_stall_seen_ = 0;
  uint64_t last_pause_end_ns_ = 0;
  uint64_t old_reclaim_count_ = 0;
  std::vector<Address> root_cells_;
  std::vector<RootHandle> free_roots_;
  std::vector<bool> root_active_;

  std::vector<std::unique_ptr<Mutator>> mutators_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_RUNTIME_VM_H_
