#include "src/runtime/vm.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/gc/old_reclaim.h"
#include "src/nvm/fault_injector.h"
#include "src/recovery/commit_record.h"
#include "src/runtime/gc_coordinator.h"
#include "src/runtime/mutator.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {
// Share of the young generation reserved for survivor regions. Survivor
// overflow promotes early (counted, never fails).
constexpr double kSurvivorFraction = 0.125;
// Trace events retained per logical GC thread when tracing.
constexpr size_t kTraceRingCapacity = 4096;
}  // namespace

Vm::Vm(const VmOptions& options) : options_(options) {
  const std::string gc_error = options.gc.Validate();
  NVMGC_CHECK_MSG(gc_error.empty(), gc_error.c_str());
  NVMGC_CHECK_MSG(options.heap.tenure_age >= 1 && options.heap.tenure_age <= 15,
                  "HeapConfig::tenure_age outside [1, 15]: the object age field is 4 bits "
                  "wide, and an age of 0 would tenure everything on its first copy");
  if (options_.gc.generational.enabled) {
    // Derive the young-generation geometry before the heap is mapped: the
    // young generation (eden + survivor semispaces) is a quarter of the heap,
    // the paper's 16 GiB heap / 4 GiB young space. It lives in the DRAM cache
    // arena, so dram_cache_regions grows by the young budget and the
    // write-cache staging capacity the config asked for is untouched.
    HeapConfig& h = options_.heap;
    const uint32_t young_regions = h.heap_regions / 4;
    NVMGC_CHECK_MSG(young_regions >= 2,
                    "generational young generation too small: a quarter of the heap must "
                    "cover at least two regions (one eden + one survivor) — raise "
                    "HeapConfig::heap_regions to at least 8");
    const uint32_t survivor = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::ceil(young_regions * kSurvivorFraction)));
    h.generational = true;
    h.survivor_regions = survivor;
    h.eden_regions = young_regions - survivor;
    h.dram_cache_regions += young_regions;
  }
  if (options_.gc.durable) {
    NVMGC_CHECK_MSG(options_.heap.heap_device == DeviceKind::kNvm,
                    "durability requires NVM-backed tenured regions: set "
                    "HeapConfig::heap_device to DeviceKind::kNvm (a DRAM heap has no "
                    "persistence to model)");
    // Reserve the commit area past the regions before the arena is mapped.
    const CommitLayout layout = ComputeCommitLayout(options_.heap);
    options_.heap.commit_area_bytes =
        std::max(options_.heap.commit_area_bytes, layout.total_bytes());
  }
  if (options_.shared_heap_device != nullptr) {
    NVMGC_CHECK_MSG(options_.shared_heap_device->kind() == options_.heap.heap_device,
                    "shared heap device kind does not match HeapConfig::heap_device");
    NVMGC_CHECK_MSG(options_.tenant_id < MemoryDevice::kMaxTenants,
                    "tenant_id out of range for a shared heap device");
    NVMGC_CHECK_MSG(!options_.gc.durable,
                    "durability mode is single-tenant: the persist ledger tracks one arena, "
                    "so a Vm on a shared (fleet) heap device cannot enable it");
    heap_device_ = options_.shared_heap_device;
  } else {
    owned_heap_device_ = std::make_unique<MemoryDevice>(
        options_.heap.heap_device == DeviceKind::kNvm ? MakeOptaneProfile()
                                                      : MakeDramProfile());
    heap_device_ = owned_heap_device_.get();
  }
  dram_device_ = std::make_unique<MemoryDevice>(MakeDramProfile());
  heap_ = std::make_unique<Heap>(options_.heap, heap_device_, dram_device_.get());
  if (options_.shared_heap_device != nullptr) {
    // Attribute this Vm's whole arena (regions + commit area) to its tenant:
    // the device resolves contention shares and per-tenant traffic by range.
    heap_device_->BindTenantRange(
        static_cast<uint8_t>(options_.tenant_id), heap_->heap_base(),
        heap_->heap_arena_bytes() + heap_->commit_area_bytes());
  }
  if (options_.gc.durable) {
    // Track persist state for the whole durable range: heap regions plus the
    // commit area (records and redo logs obey the same flush/fence rules).
    const DeviceProfile& profile = heap_device_->profile();
    heap_device_->persist().Configure(
        heap_->heap_base(), heap_->heap_arena_bytes() + heap_->commit_area_bytes(),
        profile.flush_line_ns, profile.fence_ns);
    heap_->set_durable_quarantine(true);
  }
  tracer_ = std::make_unique<GcTracer>(options.gc.gc_threads, kTraceRingCapacity);
  tracer_->set_enabled(options.trace_gc);
  collector_ = std::make_unique<CopyCollector>(heap_.get(), options.gc);
  collector_->set_tracer(tracer_.get());
  timeline_ = std::make_unique<DeviceTimeline>(heap_device_);
  collector_->set_timeline(timeline_.get());
  site_profiler_ = std::make_unique<AllocSiteProfiler>();
  collector_->set_site_profiler(site_profiler_.get());
  if (options_.flight_recorder.tenant.empty() && options_.shared_heap_device != nullptr) {
    // Tag fleet incidents with the tenant so co-tenant dumps into one
    // directory never collide (see FlightRecorder::WriteIncident).
    options_.flight_recorder.tenant =
        options_.tenant_label.empty() ? "t" + std::to_string(options_.tenant_id)
                                      : options_.tenant_label;
  }
  flight_rec_ = std::make_unique<FlightRecorder>(options_.flight_recorder);
  flight_rec_->set_site_profiler(site_profiler_.get());
  if (options.gc.adaptive_policy) {
    policy_ = std::make_unique<PolicyEngine>(options_.gc, heap_->heap_arena_bytes(),
                                             heap_->cache_arena_bytes(),
                                             heap_device_->profile());
    // The engine's initial tuning resolves the 0 "keep" sentinels to concrete
    // values; install it so the first pause already runs under policy control.
    collector_->ApplyTuning(policy_->tuning());
    policy_->ExportMetrics(&metrics_);
  }
}

Vm::~Vm() = default;

Mutator* Vm::CreateMutator() {
  mutators_.push_back(std::make_unique<Mutator>(this));
  return mutators_.back().get();
}

RootHandle Vm::NewRoot(Address value) {
  if (!free_roots_.empty()) {
    const RootHandle handle = free_roots_.back();
    free_roots_.pop_back();
    root_cells_[handle] = value;
    root_active_[handle] = true;
    return handle;
  }
  root_cells_.push_back(value);
  root_active_.push_back(true);
  return root_cells_.size() - 1;
}

void Vm::SetRoot(RootHandle handle, Address value) {
  NVMGC_CHECK(handle < root_cells_.size() && root_active_[handle]);
  root_cells_[handle] = value;
}

void Vm::ReleaseRoot(RootHandle handle) {
  NVMGC_CHECK(handle < root_cells_.size() && root_active_[handle]);
  root_cells_[handle] = kNullAddress;
  root_active_[handle] = false;
  free_roots_.push_back(handle);
}

std::vector<Address*> Vm::RootSlots() {
  std::vector<Address*> slots;
  slots.reserve(root_cells_.size());
  for (size_t i = 0; i < root_cells_.size(); ++i) {
    if (root_active_[i]) {
      slots.push_back(&root_cells_[i]);
    }
  }
  return slots;
}

bool Vm::OldGenerationUnderPressure() const {
  return heap_->free_region_count() < options_.heap.heap_regions / 4;
}

GcCycleStats Vm::CollectNow() {
  GcKind kind = GcKind::kMinor;
  if (options_.gc.generational.enabled && OldGenerationUnderPressure()) {
    // Old-generation pressure: escalate to a major cycle that also evacuates
    // (and thereby compacts) the old regions.
    kind = GcKind::kMajor;
  }
  return CollectNow(kind);
}

GcCycleStats Vm::CollectNow(GcKind kind) {
  if (coordinator_ != nullptr) {
    // Fleet pause scheduling: the coordinator may defer this pause (in
    // simulated time) so it does not land inside a co-tenant's write-back
    // drain. The deferral is application time — the tenant keeps running.
    const uint64_t defer_ns =
        coordinator_->OnPauseRequested(options_.tenant_id, kind, clock_.now_ns());
    if (defer_ns > 0) {
      clock_.Advance(defer_ns);
    }
  }
  const uint64_t pause_start_ns = clock_.now_ns();
  const size_t timeline_from = timeline_->size();
  const uint64_t pause_id = metrics_.pauses().size();
  const GcCycleStats cycle = collector_->Collect(RootSlots(), &clock_, kind);

  // The merged cycle under its stable dotted names: per-pause snapshot,
  // lifetime counters and duration histograms (see metrics.h).
  RecordGcCycle(&metrics_, cycle);
  if (options_.gc.generational.enabled) {
    // Per-cycle value, not a sum — a gauge, refreshed every pause.
    metrics_.SetGauge("gen.tenure_threshold", options_.heap.tenure_age);
    metrics_.SetGauge("gen.eden_quota_regions", heap_->config().eden_regions);
    metrics_.SetGauge("gen.survivor_regions", heap_->config().survivor_regions);
  }
  ExportLifetimeMetrics();

  // Feedback step: turn this pause's signals into the next pause's tuning.
  if (policy_ != nullptr) {
    PolicySignals signals =
        CollectPolicySignals(cycle, collector_->stats().gc_count(), timeline_.get());
    // Fleet stall accrued since the previous pause, over the application
    // interval it accrued in (stalls advance the clock, so they are part of
    // the interval by construction).
    signals.fleet_stall_ns = fleet_stall_accum_ - fleet_stall_seen_;
    signals.fleet_interval_ns =
        pause_start_ns > last_pause_end_ns_ ? pause_start_ns - last_pause_end_ns_ : 0;
    fleet_stall_seen_ = fleet_stall_accum_;
    policy_->OnPauseEnd(signals);
    policy_->ExportMetrics(&metrics_);
    if (tracer_->enabled()) {
      tracer_->BindThread(tracer_->control_tid());
      policy_->EmitTraceCounters(tracer_.get(), clock_.now_ns());
    }
    collector_->ApplyTuning(policy_->tuning());
  }

  // Flight recorder: retain this pause's full context (after the policy step,
  // so the record carries the decisions this pause produced) and let the
  // anomaly triggers auto-dump an incident. Host-side only — charges zero
  // simulated time.
  if (flight_rec_->enabled()) {
    FlightPauseRecord record;
    record.pause_id = pause_id;
    record.stats = cycle;
    if (policy_ != nullptr) {
      record.decisions = policy_->DecisionsSince(policy_decisions_seen_);
      policy_decisions_seen_ = policy_->decisions().size();
    }
    const std::vector<TimelineSample>& samples = timeline_->samples();
    record.timeline.assign(samples.begin() + std::min(timeline_from, samples.size()),
                           samples.end());
    record.sites = site_profiler_->last_cycle();
    const FrTrigger fired = flight_rec_->RecordPause(std::move(record));
    if (fired != FrTrigger::kNone) {
      metrics_.AddCounter(std::string("fr.trigger.") + FrTriggerName(fired), 1);
    }
    metrics_.SetGauge("fr.incidents", flight_rec_->incidents());
  }

  if (coordinator_ != nullptr) {
    coordinator_->OnPauseFinished(options_.tenant_id, kind, pause_start_ns, clock_.now_ns(),
                                  cycle.writeback_phase_ns);
  }
  last_pause_end_ns_ = clock_.now_ns();

  // Eden was reclaimed: every mutator's TLAB pointer is stale.
  for (auto& mutator : mutators_) {
    mutator->ResetTlab();
  }
  // Concurrent-cycle analog: when the old generation has eaten most of the
  // heap, reclaim wholly-dead old regions. Like G1's concurrent marking it is
  // not charged to the application clock.
  if (OldGenerationUnderPressure()) {
    ReclaimDeadOldRegions(heap_.get(), RootSlots());
    ++old_reclaim_count_;
  }
  return cycle;
}

std::string Vm::DumpFlightRecord(const std::string& dir) {
  const std::string path = flight_rec_->Dump(FrTrigger::kExplicit, dir);
  if (!path.empty()) {
    metrics_.SetGauge("fr.incidents", flight_rec_->incidents());
  }
  return path;
}

void Vm::ExportLifetimeMetrics() {
  heap_device_->ExportMetrics(&metrics_, "device.heap");
  dram_device_->ExportMetrics(&metrics_, "device.dram");
  if (collector_->write_cache() != nullptr) {
    collector_->write_cache()->ExportMetrics(&metrics_);
  }
  if (collector_->header_map() != nullptr) {
    metrics_.SetGauge("hm.capacity_entries", collector_->header_map()->capacity());
  }
  FaultInjector* injector = heap_device_->fault_injector();
  if (injector != nullptr) {
    injector->ExportMetrics(&metrics_, "fault.heap");
  }
  FaultInjector* dram_injector = dram_device_->fault_injector();
  if (dram_injector != nullptr) {
    dram_injector->ExportMetrics(&metrics_, dram_injector == injector ? "fault.heap"
                                                                      : "fault.dram");
  }
}

}  // namespace nvmgc
