// Write cache: DRAM staging of survivor regions (Section 3.2 of the paper).
//
// During the copy-and-traverse phase live objects are copied into DRAM cache
// regions instead of NVM survivor regions. Each cache region is paired with an
// NVM "twin" at pair-allocation time; an object staged at cache offset k has
// the final address twin.bottom + k, and references are fixed up with that
// final NVM address immediately (the paper's region mapping). Cache regions
// are written back to NVM sequentially — with non-temporal stores when enabled
// — either all at once in the write-only sub-phase (synchronous mode) or as
// soon as each region becomes ready (asynchronous flushing, Section 4.2).
//
// Readiness for asynchronous flushing generalizes the paper's Figure 4 LIFO
// trick: a region is ready once it is closed to new objects and its count of
// outstanding (pushed but unprocessed) reference slots reaches zero — under
// depth-first processing this is exactly the moment Figure 4's memorized
// "last" reference is popped. Regions whose references were stolen are
// steal-tainted and fall back to the synchronous flush, as in the paper.

#ifndef NVMGC_SRC_CORE_WRITE_CACHE_H_
#define NVMGC_SRC_CORE_WRITE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/gc/gc_options.h"
#include "src/gc/gc_stats.h"
#include "src/heap/heap.h"
#include "src/nvm/persist_ledger.h"
#include "src/nvm/sim_clock.h"

namespace nvmgc {

class GcTracer;
class MetricsRegistry;

// Per-GC-worker staging state: the worker's current cache/twin pair.
struct WriteCacheWorkerState {
  Region* cache_region = nullptr;
  Region* twin_region = nullptr;  // NVM survivor twin providing final addresses.
  // Sticky for the rest of the pause once a cache/twin pair could not be
  // allocated (DRAM arena exhausted, or denied by a fault-injected pressure
  // window): the worker copies survivors directly to NVM instead of aborting.
  bool direct_fallback = false;
};

class WriteCache {
 public:
  struct Allocation {
    Address physical = kNullAddress;  // DRAM staging location (copy target).
    Address final = kNullAddress;     // Final NVM address (what references get).
    Region* cache_region = nullptr;
    Region* twin_region = nullptr;
  };

  WriteCache(Heap* heap, const GcOptions& options);

  // Attempts to stage `bytes` for `state`'s worker. Returns false when the
  // cache cannot supply space (capacity cap reached or DRAM arena exhausted);
  // the caller then copies directly to NVM, exactly as the paper's bounded
  // write cache does. A pair-allocation failure (arena exhausted or denied by
  // the DRAM device's fault injector) flips `state` into the sticky
  // direct-to-NVM fallback for the remainder of the pause, recorded in
  // `stats`.
  bool Allocate(WriteCacheWorkerState* state, size_t bytes, Allocation* out,
                uint64_t gc_epoch, SimClock* clock, GcCycleStats* stats);

  // Undoes the most recent allocation (the CAS to claim the object was lost).
  void Retract(const Allocation& allocation, size_t bytes);

  // Translates a final NVM address to the physical location holding the bytes
  // right now (DRAM while staged, the NVM address once flushed/direct).
  static Address Physical(Heap* heap, Address final_address);

  // Asynchronous flush attempt: flushes `twin`'s pair if it is closed, has no
  // outstanding slots, was not steal-tainted, and no throttle window of the
  // heap device's fault injector is open at `clock`. Safe to call from any
  // worker; at most one caller wins the flush.
  void MaybeAsyncFlush(Region* twin, SimClock* clock, GcCycleStats* stats);

  // Synchronous write-back, one pair per call: flushes the `index`-th twin
  // created this pause (of pause_twin_count()) unless it was already flushed
  // asynchronously. The collector's workers take every n-th index, so each
  // worker's simulated cost does not depend on the order of their steps. In
  // durability mode the caller passes its per-worker PersistBatch: each
  // drained run is flushed into the batch and the caller fences once at the
  // batch boundary (one SFENCE per worker per write-back phase).
  size_t pause_twin_count() const;
  void FlushPauseTwin(size_t index, SimClock* clock, GcCycleStats* stats,
                      PersistBatch* batch = nullptr);

  // End-of-pause bookkeeping; returns twins created this pause (survivors).
  std::vector<Region*> TakePauseTwins();

  size_t staged_bytes() const { return staged_bytes_.load(std::memory_order_relaxed); }
  size_t capacity_bytes() const { return capacity_bytes_.load(std::memory_order_relaxed); }
  bool unlimited() const { return unlimited_; }

  // Between-pause retuning hooks for the adaptive policy engine. Both are
  // plain publications: workers re-read the values on their next allocation /
  // pair close, so calling these mid-pause would be safe but is only done by
  // CopyCollector::ApplyTuning between pauses.
  void SetCapacityBytes(size_t bytes) {
    capacity_bytes_.store(bytes, std::memory_order_relaxed);
  }
  void SetAsync(bool async) { async_.store(async, std::memory_order_relaxed); }

  // Observability: when a tracer is attached, every region flush emits a
  // "cache.flush.sync" / "cache.flush.async" span on the flushing worker's
  // timeline. The tracer must outlive the cache.
  void set_tracer(GcTracer* tracer) { tracer_ = tracer; }
  // Publishes configuration gauges ("cache.capacity_bytes", "cache.unlimited").
  void ExportMetrics(MetricsRegistry* metrics) const;

  // Degraded mode (set per pause by the collector under sustained device
  // throttling): asynchronous flushing and non-temporal stores are disabled so
  // the write-back is a plain synchronous stream of cache-line stores.
  void SetDegraded(bool degraded) { degraded_.store(degraded, std::memory_order_relaxed); }
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  bool async_enabled() const {
    return async_.load(std::memory_order_relaxed) && !degraded();
  }
  bool non_temporal_enabled() const { return non_temporal_ && !degraded(); }

 private:
  // Flips the worker into the sticky direct-to-NVM fallback.
  static void EnterDirectFallback(WriteCacheWorkerState* state, GcCycleStats* stats);
  // Closes the worker's current pair (region full) and, in async mode,
  // attempts to flush it.
  void ClosePair(WriteCacheWorkerState* state, SimClock* clock, GcCycleStats* stats);

  // Performs the actual write-back of one pair. Caller must have won the
  // flush claim. `batch` collects the persist flushes in durability mode
  // (sync path); async flushes fence their own batch immediately so the
  // region is durable as soon as it lands.
  void FlushPair(Region* twin, SimClock* clock, GcCycleStats* stats, bool async,
                 PersistBatch* batch = nullptr);

  Heap* heap_;
  GcTracer* tracer_ = nullptr;
  const RegionType twin_type_;  // kSurvivor, or kOld in generational mode.
  const bool non_temporal_;
  const bool unlimited_;
  std::atomic<bool> async_;
  std::atomic<size_t> capacity_bytes_;

  std::atomic<bool> degraded_{false};
  std::atomic<size_t> staged_bytes_{0};

  mutable std::mutex mu_;
  std::vector<Region*> pause_twins_;  // Twins created during this pause.
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_CORE_WRITE_CACHE_H_
