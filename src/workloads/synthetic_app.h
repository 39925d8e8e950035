// Synthetic-application engine: drives a Vm with a parameterized allocation,
// liveness and access profile.
//
// Each Renaissance benchmark is encoded as one WorkloadProfile (see
// renaissance.h); the engine turns the profile into real object-graph churn:
// it allocates boxed objects and arrays, attaches a configurable fraction to
// a sliding live window (so survivors exist for the copying GC to move),
// builds deep chains for load-imbalance profiles, and issues application
// reads/writes between allocations so the mutator phase consumes bandwidth
// too. GCs trigger naturally when the eden quota runs out.

#ifndef NVMGC_SRC_WORKLOADS_SYNTHETIC_APP_H_
#define NVMGC_SRC_WORKLOADS_SYNTHETIC_APP_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/util/random.h"

namespace nvmgc {

struct WorkloadProfile {
  std::string name;

  // --- Allocation mix ---
  // Fraction of allocations that are small boxed objects (the rest arrays).
  double small_object_fraction = 0.8;
  uint32_t small_ref_fields = 2;
  uint32_t small_payload_bytes = 24;
  uint32_t array_bytes_min = 128;
  uint32_t array_bytes_max = 4096;
  // Of the array allocations, fraction that are reference arrays.
  double ref_array_fraction = 0.2;

  // --- Liveness ---
  // Fraction of allocations attached to the live window (survive the GC that
  // follows their allocation).
  double survival_fraction = 0.1;
  // Steady-state live-window size; the oldest survivors are dropped beyond it.
  size_t live_window_bytes = 4 * 1024 * 1024;
  // Fraction of survivors appended to one deep chain instead of the balanced
  // window: models load-imbalanced traversal (akka-uct).
  double chain_fraction = 0.0;

  // --- Application behavior between allocations ---
  double reads_per_alloc = 0.5;
  double writes_per_alloc = 0.2;
  // Payload bytes touched per application read/write.
  uint32_t touch_bytes = 64;
  // Fraction of application accesses served by the CPU caches. Unlike GC
  // traversal (whose locality is poor by construction — the paper's CAT
  // experiment shows GC barely uses the LLC), application phases often hit in
  // cache, which is why NVM slows applications far less than it slows GC.
  double mutator_cache_hit = 0.70;

  // --- Volume ---
  size_t total_allocation_bytes = 64 * 1024 * 1024;

  uint64_t seed = 1;
};

// Result of one synthetic run (all times simulated).
struct WorkloadResult {
  std::string name;
  uint64_t total_ns = 0;
  uint64_t gc_ns = 0;
  uint64_t app_ns = 0;  // total - gc
  size_t gc_count = 0;
  uint64_t bytes_allocated = 0;
  // Average NVM bandwidth consumed during GC pauses (MB/s; GcBandwidthMbps).
  double gc_bandwidth_mbps = 0.0;

  double gc_seconds() const { return static_cast<double>(gc_ns) / 1e9; }
  double app_seconds() const { return static_cast<double>(app_ns) / 1e9; }
  double total_seconds() const { return static_cast<double>(total_ns) / 1e9; }
};

class SyntheticApp {
 public:
  SyntheticApp(Vm* vm, WorkloadProfile profile);

  // Runs the profile to completion and reports simulated results.
  WorkloadResult Run();

 private:
  void AllocateOne();
  void TouchLiveSet();
  void TouchRandomLive(bool write);
  void AttachSurvivor(Address object);

  Vm* vm_;
  WorkloadProfile profile_;
  Mutator* mutator_;
  Random rng_;

  KlassId node_klass_ = 0;
  KlassId container_klass_ = 0;
  KlassId byte_array_klass_ = 0;
  KlassId ref_array_klass_ = 0;

  // Allocation-site tags (Vm::RegisterAllocSite): one per allocation path in
  // AllocateOne(), so the site profiler attributes lifetime demographics and
  // NVM write amplification per object shape.
  AllocSiteId node_site_ = 0;
  AllocSiteId ref_array_site_ = 0;
  AllocSiteId byte_array_site_ = 0;

  // Live window: roots of surviving objects, FIFO-retired by byte budget.
  // GlobalRoot releases each root cell automatically on retirement. Keep the
  // std::deque: the order it destroys the remaining entries in at teardown
  // (middle blocks first) is the order their root handles are reused by the
  // next workload on the same Vm, and simulated results depend on it.
  std::deque<std::pair<GlobalRoot, size_t>> live_window_;
  size_t live_window_bytes_ = 0;
  GlobalRoot chain_head_;
  bool chain_started_ = false;

  uint64_t allocated_bytes_ = 0;
};

// Average heap-device bandwidth over every pause in `stats`: bytes moved per
// pause second, in MB/s (0 when no pause ran).
double GcBandwidthMbps(const GcStats& stats);

// Convenience: construct a VM for `device`/`gc`, run `profile`, return result.
WorkloadResult RunWorkload(const WorkloadProfile& profile, const HeapConfig& heap,
                           const GcOptions& gc);

// Full-options variant: `post_run` (when set) receives the Vm after the
// workload finished but before teardown, so callers can harvest per-pause
// metrics snapshots and trace events (see Vm::metrics() / Vm::tracer()).
WorkloadResult RunWorkload(const WorkloadProfile& profile, const VmOptions& options,
                           const std::function<void(Vm&)>& post_run = {});

}  // namespace nvmgc

#endif  // NVMGC_SRC_WORKLOADS_SYNTHETIC_APP_H_
