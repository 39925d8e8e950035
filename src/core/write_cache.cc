#include "src/core/write_cache.h"

#include <cstring>

#include "src/nvm/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {
// CPU cost of taking a fresh cache/twin region pair.
constexpr uint64_t kPairAllocNs = 250;
}  // namespace

WriteCache::WriteCache(Heap* heap, const GcOptions& options)
    : heap_(heap),
      // Non-generational: the cache stages survivors, so twins are NVM
      // survivor regions. Generational: only tenured copies go through the
      // cache (survivors stay in DRAM), so twins are NVM old regions.
      twin_type_(options.generational.enabled ? RegionType::kOld : RegionType::kSurvivor),
      non_temporal_(options.use_non_temporal),
      unlimited_(options.unlimited_write_cache),
      async_(options.async_flush) {
  NVMGC_CHECK(heap != nullptr);
  capacity_bytes_.store(options.WriteCacheBytesFor(heap->heap_arena_bytes()),
                        std::memory_order_relaxed);
}

void WriteCache::EnterDirectFallback(WriteCacheWorkerState* state, GcCycleStats* stats) {
  state->direct_fallback = true;
  stats->cache_fallback_workers += 1;
}

bool WriteCache::Allocate(WriteCacheWorkerState* state, size_t bytes, Allocation* out,
                          uint64_t gc_epoch, SimClock* clock, GcCycleStats* stats) {
  NVMGC_DCHECK(bytes <= heap_->region_bytes());
  if (state->direct_fallback) {
    return false;  // Worker already degraded to direct-to-NVM for this pause.
  }
  while (true) {
    if (state->cache_region == nullptr) {
      if (!unlimited_ && staged_bytes_.load(std::memory_order_relaxed) >= capacity_bytes()) {
        return false;  // Cap reached: caller copies directly into NVM.
      }
      FaultInjector* injector = heap_->dram_device()->fault_injector();
      if (injector != nullptr && injector->DramPressureActive(clock->now_ns())) {
        // DRAM-pressure fault: staging memory is gone for now. Unlike the
        // capacity cap (re-checked per object), this degrades the worker for
        // the rest of the pause.
        stats->cache_fault_denials += 1;
        EnterDirectFallback(state, stats);
        return false;
      }
      Region* cache = heap_->AllocateCacheRegion();
      if (cache == nullptr) {
        EnterDirectFallback(state, stats);
        return false;  // DRAM arena exhausted.
      }
      Region* twin = heap_->AllocateRegion(twin_type_);
      if (twin == nullptr) {
        heap_->FreeCacheRegion(cache);
        EnterDirectFallback(state, stats);
        return false;
      }
      twin->set_gc_epoch(gc_epoch);
      twin->set_cache_twin(cache);
      cache->set_cache_twin(twin);
      {
        std::lock_guard<std::mutex> lock(mu_);
        pause_twins_.push_back(twin);
      }
      clock->Advance(kPairAllocNs);
      state->cache_region = cache;
      state->twin_region = twin;
    }
    const Address physical = state->cache_region->Allocate(bytes);
    if (physical != kNullAddress) {
      staged_bytes_.fetch_add(bytes, std::memory_order_relaxed);
      out->physical = physical;
      out->final = state->twin_region->bottom() + (physical - state->cache_region->bottom());
      out->cache_region = state->cache_region;
      out->twin_region = state->twin_region;
      return true;
    }
    ClosePair(state, clock, stats);
  }
}

void WriteCache::Retract(const Allocation& allocation, size_t bytes) {
  // Only valid immediately after Allocate on the same worker (bump rollback).
  NVMGC_DCHECK(allocation.cache_region->top() == allocation.physical + bytes);
  allocation.cache_region->set_top(allocation.physical);
  staged_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

Address WriteCache::Physical(Heap* heap, Address final_address) {
  Region* region = heap->RegionFor(final_address);
  if (region == nullptr) {
    return final_address;
  }
  Region* cache = region->cache_twin();
  if (cache == nullptr) {
    return final_address;  // Not staged (direct copy, or already flushed).
  }
  return cache->bottom() + (final_address - region->bottom());
}

void WriteCache::ClosePair(WriteCacheWorkerState* state, SimClock* clock, GcCycleStats* stats) {
  Region* cache = state->cache_region;
  Region* twin = state->twin_region;
  state->cache_region = nullptr;
  state->twin_region = nullptr;
  if (cache == nullptr) {
    return;
  }
  cache->set_closed(true);
  if (async_enabled()) {
    MaybeAsyncFlush(twin, clock, stats);
  }
}

void WriteCache::MaybeAsyncFlush(Region* twin, SimClock* clock, GcCycleStats* stats) {
  if (!async_enabled() || twin == nullptr) {
    return;
  }
  Region* cache = twin->cache_twin();
  if (cache == nullptr || !cache->closed() || cache->pending_slots() != 0) {
    return;
  }
  if (cache->steal_tainted()) {
    return;  // LIFO tracking broken by work stealing: leave for the sync flush.
  }
  const FaultInjector* injector = heap_->heap_device()->fault_injector();
  if (injector != nullptr && injector->ThrottleActive(clock->now_ns())) {
    // A throttle window opened after the pause began: flushing now would race
    // the shrunken bandwidth, so the (degraded) write-back takes the pair.
    return;
  }
  if (cache->ClaimFlush()) {
    FlushPair(twin, clock, stats, /*async=*/true);
  }
}

size_t WriteCache::pause_twin_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pause_twins_.size();
}

void WriteCache::FlushPauseTwin(size_t index, SimClock* clock, GcCycleStats* stats,
                                PersistBatch* batch) {
  Region* twin = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    twin = pause_twins_[index];
  }
  Region* cache = twin->cache_twin();
  if (cache == nullptr) {
    return;  // Already flushed asynchronously.
  }
  if (cache->steal_tainted()) {
    stats->regions_steal_tainted += 1;
  }
  if (cache->ClaimFlush()) {
    FlushPair(twin, clock, stats, /*async=*/false, batch);
  }
}

void WriteCache::FlushPair(Region* twin, SimClock* clock, GcCycleStats* stats, bool async,
                           PersistBatch* batch) {
  // Emitted on the flushing worker's timeline: async flushes appear inside
  // the read phase, sync flushes inside the write-back phase.
  TraceSpan span(tracer_, clock, async ? "cache.flush.async" : "cache.flush.sync", "cache");
  Region* cache = twin->cache_twin();
  NVMGC_CHECK(cache != nullptr);
  const size_t used = cache->used();
  if (used > 0) {
    heap_->dram_device()->Access(clock,
                                 SequentialRead(cache->bottom(), static_cast<uint32_t>(used)));
    AccessDescriptor write = non_temporal_enabled()
                                 ? NonTemporalWrite(twin->bottom(), static_cast<uint32_t>(used))
                                 : SequentialWrite(twin->bottom(), static_cast<uint32_t>(used));
    heap_->heap_device()->Access(clock, write);
    std::memcpy(reinterpret_cast<void*>(twin->bottom()),
                reinterpret_cast<const void*>(cache->bottom()), used);
  }
  PersistOrderingLedger* ledger = &heap_->heap_device()->persist();
  if (ledger->enabled() && used > 0) {
    if (batch != nullptr) {
      // Sync write-back: each drained run is flushed into the worker's batch;
      // the collector fences once at the batch boundary.
      batch->FlushRange(twin->bottom(), used, clock);
    } else {
      // Async flush: fence immediately so the region is durable the moment it
      // lands (the flushing worker issues its own SFENCE).
      PersistBatch local(ledger);
      local.FlushRange(twin->bottom(), used, clock);
      local.Fence(clock);
      stats->persist_flush_lines += local.flush_lines();
      stats->persist_fences += local.fences();
      stats->persist_ns += local.persist_ns();
    }
  }
  twin->set_top(twin->bottom() + used);
  twin->set_flushed(true);
  twin->set_cache_twin(nullptr);
  heap_->FreeCacheRegion(cache);
  if (async) {
    stats->regions_flushed_async += 1;
  } else {
    stats->regions_flushed_sync += 1;
  }
}

void WriteCache::ExportMetrics(MetricsRegistry* metrics) const {
  metrics->SetGauge("cache.capacity_bytes", unlimited_ ? 0 : capacity_bytes());
  metrics->SetGauge("cache.unlimited", unlimited_ ? 1 : 0);
}

std::vector<Region*> WriteCache::TakePauseTwins() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Region*> out;
  out.swap(pause_twins_);
  staged_bytes_.store(0, std::memory_order_relaxed);
  return out;
}

}  // namespace nvmgc
