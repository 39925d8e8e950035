// Parallel stop-the-world copying young collector (the engine shared by the
// G1-style and Parallel-Scavenge-style collectors).
//
// The collection set is every young region (eden + survivors of the previous
// cycle). Roots are the mutator handles plus each young region's remembered
// set. Workers run the classic copy-and-traverse loop over per-thread task
// queues with work stealing:
//
//   1. pop a reference slot, read the referent            (random read)
//   2. copy the referent to a survivor target             (sequential r/w)
//   3. install the forwarding pointer in the old header   (random write)
//      — or into the DRAM header map when enabled
//   4. update the slot with the new address               (random write)
//      and push the referents' own slots                  (sequential read)
//
// With the write cache enabled, step 2 copies into a DRAM cache region whose
// NVM twin provides the final address; the pause then ends with a write-only
// sub-phase that streams cache regions back to NVM (non-temporal stores when
// enabled), optionally overlapped via asynchronous region flushing.
//
// The GC workers are logical: each has its own simulated clock, and the
// calling thread steps them one at a time in simulated-clock order (the
// lowest clock goes next). A pause is therefore a deterministic function of
// the heap and the options, however many host cores there are.

#ifndef NVMGC_SRC_GC_COPY_COLLECTOR_H_
#define NVMGC_SRC_GC_COPY_COLLECTOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/header_map.h"
#include "src/core/write_cache.h"
#include "src/gc/gc_options.h"
#include "src/gc/gc_stats.h"
#include "src/gc/task_queue.h"
#include "src/heap/heap.h"
#include "src/nvm/prefetch_queue.h"
#include "src/nvm/sim_clock.h"
#include "src/obs/alloc_site.h"
#include "src/obs/device_timeline.h"
#include "src/obs/trace.h"
#include "src/recovery/commit_record.h"

namespace nvmgc {

class CopyCollector {
 public:
  CopyCollector(Heap* heap, const GcOptions& options);
  virtual ~CopyCollector() = default;

  CopyCollector(const CopyCollector&) = delete;
  CopyCollector& operator=(const CopyCollector&) = delete;

  // Performs one stop-the-world collection. `roots` are host locations
  // holding heap addresses (mutator handles); `app_clock` is the simulated
  // application clock, advanced by the pause duration. `kind` selects the
  // collection set: kMinor evacuates the young generation only (the default,
  // and the only kind outside generational mode); kMajor additionally
  // evacuates old regions, using humongous/large-object reference slots as
  // extra roots since those spaces are never copied.
  GcCycleStats Collect(const std::vector<Address*>& roots, SimClock* app_clock,
                       GcKind kind = GcKind::kMinor);

  GcStats& stats() { return stats_; }
  const GcStats& stats() const { return stats_; }
  const GcOptions& options() const { return options_; }

  // Installs the per-pause tuning produced by the adaptive policy engine.
  // Only legal between pauses. Values are clamped to what this collector can
  // honor (thread count to options().gc_threads, feature toggles to constructed
  // subsystems); capacity changes are applied to the write cache / header map
  // immediately — both are empty between pauses, so nothing is dropped.
  void ApplyTuning(const GcTuning& tuning);
  const GcTuning& tuning() const { return tuning_; }
  HeaderMap* header_map() { return header_map_.get(); }
  WriteCache* write_cache() { return write_cache_.get(); }
  virtual const char* name() const { return "copy"; }

  // Attaches the tracer that receives pause / phase / flush / steal events
  // (forwarded to the write cache and header map). The tracer must outlive
  // the collector; pass nullptr to detach.
  void set_tracer(GcTracer* tracer);
  GcTracer* tracer() { return tracer_; }

  // Attaches the heap-device bandwidth timeline, sampled at the end of every
  // pause (read phase, then write-back phase). Must outlive the collector;
  // pass nullptr to detach.
  void set_timeline(DeviceTimeline* timeline) { timeline_ = timeline; }
  DeviceTimeline* timeline() { return timeline_; }

  // Attaches the allocation-site profiler: workers then attribute every
  // evacuation-time copy back to the referent's birth-site tag (spare mark
  // bits) into worker-local deltas, merged and folded into the profiler on
  // the control thread at pause end. Must outlive the collector; pass nullptr
  // to detach.
  void set_site_profiler(AllocSiteProfiler* profiler) { site_profiler_ = profiler; }
  AllocSiteProfiler* site_profiler() { return site_profiler_; }

  // Durability mode: the simulated instants at which each pause's commit
  // record sealed (the seal fence completed). Crash sweeps use this to
  // predict which epoch recovery must land on for a given power-cut instant.
  const std::vector<uint64_t>& commit_instants() const { return commit_instants_; }

 protected:
  // Policy hook: may this object be staged through the write cache? PS copies
  // objects larger than a LAB fraction outside its buffers, which the cache
  // cannot absorb (Section 4.4).
  virtual bool StageableThroughCache(size_t size) const;

 private:
  struct Worker {
    uint32_t id = 0;
    SimClock clock;
    PrefetchQueue prefetch;
    // Separate queue for header-map probe lines so probe prefetches do not
    // evict object prefetches (Section 4.3's "extended" prefetching).
    PrefetchQueue hm_prefetch;
    // Header-map entries this worker installed (cleared at pause end).
    std::vector<uint32_t> hm_journal;
    GcCycleStats local;
    WriteCacheWorkerState cache_state;
    Region* direct_survivor = nullptr;
    Region* old_target = nullptr;
    // Per-site evacuation deltas (indexed by site id); only sized when a
    // profiler is attached.
    std::vector<SiteWorkerDelta> site_local;
    // Write-back phase: index of the next pause twin this worker flushes (it
    // takes every n-th one), and its CLWB batch, fenced after the last.
    size_t flush_cursor = 0;
    std::optional<PersistBatch> batch;
  };

  struct CopyTarget {
    Address physical = kNullAddress;
    Address final = kNullAddress;
    bool staged = false;
    bool promoted = false;
  };

  bool HeaderMapActive() const;
  MemoryDevice* DeviceForAddress(Address a);
  // Copy count at which a survivor tenures: GenerationalOptions::
  // tenure_threshold when the generational heap is on, HeapConfig::tenure_age
  // otherwise.
  uint32_t TenureThreshold() const;

  // Durability-mode pause epilogue (control thread, after cset reclaim):
  // flushes new live regions, writes the in-place-update redo log, seals the
  // commit record durable-last, and releases the region quarantine. Advances
  // *pause_end by the persist cost and fills the cycle's persist_* fields.
  void PersistEpilogue(const std::vector<Address*>& roots, uint64_t* pause_end,
                       GcCycleStats* cycle);

  // Steps workers [0, n) on the calling thread until all are idle: each
  // round runs `step` for the non-idle worker with the lowest simulated clock
  // (ties to the lowest id). `step` returns false when the worker found
  // nothing to do, which idles it; idle workers wake when a step leaves work
  // in a queue.
  template <typename StepFn>
  void RunStepped(uint32_t n, StepFn step);
  // One read-phase step: pop one slot and process it, or, with an empty
  // queue, steal half of a victim's queue and process one stolen slot.
  bool CopyStep(Worker* w);
  // One write-back step: flush the worker's next pause twin; after its last,
  // fence its batch, clear its header-map journal and return false.
  bool WritebackStep(Worker* w, uint32_t n);
  // Emits one `name` span per worker, from `start_ns` to its clock.
  void EmitWorkerSpans(uint32_t n, const char* name, uint64_t start_ns);
  void ProcessSlot(Worker* w, Address slot);
  Address Evacuate(Worker* w, Address old_addr);
  void AllocateTarget(Worker* w, size_t size, bool promote, CopyTarget* out);
  void RetractTarget(Worker* w, const CopyTarget& target, size_t size);
  void TaintRegionOfSlot(Address slot);

  Heap* heap_;
  GcOptions options_;
  // The per-pause mutable view of options_: static runs keep DefaultGcTuning
  // forever; adaptive runs rewrite it between pauses via ApplyTuning.
  GcTuning tuning_;
  GcTracer* tracer_ = nullptr;
  DeviceTimeline* timeline_ = nullptr;
  AllocSiteProfiler* site_profiler_ = nullptr;

  std::unique_ptr<HeaderMap> header_map_;
  std::unique_ptr<WriteCache> write_cache_;
  std::unique_ptr<TaskQueueSet> queues_;
  std::vector<Worker> workers_;
  std::vector<GcTask> steal_buffer_;
  uint64_t gc_epoch_ = 0;
  GcKind kind_ = GcKind::kMinor;  // Kind of the pause currently running.
  CommitLayout commit_layout_;  // Durability mode only.
  std::vector<uint64_t> commit_instants_;
  uint64_t last_hm_installs_ = 0;
  uint64_t last_hm_overflows_ = 0;
  uint64_t last_hm_hits_ = 0;
  uint64_t last_hm_fault_probes_ = 0;
  GcStats stats_;
};

// Garbage-First-style configuration: regional survivor targets, software
// prefetching on by default.
class G1Collector : public CopyCollector {
 public:
  G1Collector(Heap* heap, const GcOptions& options) : CopyCollector(heap, options) {}
  const char* name() const override { return "g1"; }
};

// Parallel-Scavenge-style configuration: objects beyond the LAB fraction are
// copied directly and bypass the write cache.
class PsCollector : public CopyCollector {
 public:
  PsCollector(Heap* heap, const GcOptions& options)
      : CopyCollector(heap, options), lab_bytes_(options.lab_bytes) {}
  const char* name() const override { return "ps"; }

 protected:
  bool StageableThroughCache(size_t size) const override { return size <= lab_bytes_ / 4; }

 private:
  size_t lab_bytes_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_GC_COPY_COLLECTOR_H_
