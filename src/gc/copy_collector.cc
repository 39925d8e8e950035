#include "src/gc/copy_collector.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/nvm/fault_injector.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {
// CPU cost constants (simulated ns), independent of the memory device.
constexpr uint64_t kQueueOpNs = 6;    // Push/pop on the local task queue.
constexpr uint64_t kStealNs = 45;     // Cross-queue steal (CAS + cache ping).
constexpr uint64_t kEvacCpuNs = 55;   // Size/age computation, barrier checks.
constexpr uint64_t kFenceNs = 120;    // sfence after non-temporal write-back.
// Serial, device-independent pause overhead: safepoint synchronization, root
// scanning setup, region bookkeeping, termination. Real G1 pauses have a
// floor of this order regardless of how little is copied.
constexpr uint64_t kPauseFixedOverheadNs = 40'000;
// Header-map linear-probe window (Algorithm 1's SEARCH_BOUND).
constexpr uint32_t kHeaderMapSearchBound = 16;
}  // namespace

CopyCollector::CopyCollector(Heap* heap, const GcOptions& options)
    : heap_(heap), options_(options), tuning_(DefaultGcTuning(options)) {
  NVMGC_CHECK(heap != nullptr && options.gc_threads >= 1 &&
              options.gc_threads <= GcOptions::kMaxGcThreads);
  workers_.resize(options.gc_threads);
  for (uint32_t i = 0; i < options.gc_threads; ++i) {
    workers_[i].id = i;
  }
  queues_ = std::make_unique<TaskQueueSet>(options.gc_threads);
  if (options_.use_write_cache) {
    write_cache_ = std::make_unique<WriteCache>(heap_, options_);
  }
  if (options_.use_header_map) {
    header_map_ = std::make_unique<HeaderMap>(options_.HeaderMapBytesFor(heap_->heap_arena_bytes()),
                                              kHeaderMapSearchBound, heap_->dram_device());
    header_map_->set_key_origin(heap_->heap_base());
  }
  if (options_.durable) {
    commit_layout_ = ComputeCommitLayout(heap_->config());
    NVMGC_CHECK_MSG(heap_->commit_area_bytes() >= commit_layout_.total_bytes(),
                    "durability enabled but the heap's commit area is too small: the Vm "
                    "must size HeapConfig::commit_area_bytes from ComputeCommitLayout");
  }
}

void CopyCollector::set_tracer(GcTracer* tracer) {
  tracer_ = tracer;
  if (write_cache_ != nullptr) {
    write_cache_->set_tracer(tracer);
  }
  if (header_map_ != nullptr) {
    header_map_->set_tracer(tracer);
  }
}

bool CopyCollector::HeaderMapActive() const {
  // The header map only pays off once the read bandwidth is contended; the
  // static gate (gc_threads >= header_map_min_threads, Section 3.3) is baked
  // into DefaultGcTuning, and the adaptive policy may override it per pause.
  return header_map_ != nullptr && tuning_.header_map_enabled;
}

void CopyCollector::ApplyTuning(const GcTuning& tuning) {
  NVMGC_CHECK(queues_->AllEmpty());  // Only between pauses.
  GcTuning t = tuning;
  t.active_gc_threads = std::clamp<uint32_t>(t.active_gc_threads, 1, options_.gc_threads);
  t.header_map_enabled = t.header_map_enabled && header_map_ != nullptr;
  t.async_flush = t.async_flush && write_cache_ != nullptr;
  t.prefetch_window =
      std::clamp<uint32_t>(t.prefetch_window, 1, PrefetchQueue::kCapacity);
  if (write_cache_ != nullptr) {
    if (t.write_cache_capacity_bytes != 0) {
      write_cache_->SetCapacityBytes(t.write_cache_capacity_bytes);
    }
    write_cache_->SetAsync(t.async_flush);
  }
  if (header_map_ != nullptr && t.header_map_entries != 0) {
    header_map_->ResizeEntries(t.header_map_entries);
  }
  tuning_ = t;
}

MemoryDevice* CopyCollector::DeviceForAddress(Address a) {
  Region* region = heap_->RegionFor(a);
  if (region == nullptr) {
    return heap_->dram_device();  // Mutator handles and other host memory.
  }
  return heap_->DeviceFor(region);
}

GcCycleStats CopyCollector::Collect(const std::vector<Address*>& roots, SimClock* app_clock,
                                    GcKind kind) {
  ++gc_epoch_;
  const uint64_t t0 = app_clock->now_ns();
  NVMGC_CHECK(queues_->AllEmpty());
  kind_ = kind;

  // Degraded mode: a pause that starts inside a sustained-throttle window
  // runs with asynchronous flushing and non-temporal stores disabled — mixed
  // NT traffic on a throttled device makes the collapse worse, and async
  // flushes would race the shrinking bandwidth. Re-evaluated every pause, so
  // the optimizations come back the first pause after the window closes.
  FaultInjector* injector = heap_->heap_device()->fault_injector();
  bool degraded = injector != nullptr && injector->ThrottleActive(t0);
  if (write_cache_ != nullptr) {
    write_cache_->SetDegraded(degraded);
  }

  // --- Build the collection set. ---
  // Minor: every young region (eden + survivors of previous cycles). Major:
  // additionally every old region; humongous and large-object regions are
  // never copied, so they stay out and contribute their reference slots as
  // extra roots below.
  uint64_t young_cset_bytes = 0;
  uint64_t old_cset_bytes = 0;
  std::vector<Region*> cset;
  heap_->ForEachRegion([&](Region* r) {
    const bool young = r->type() == RegionType::kEden ||
                       (r->type() == RegionType::kSurvivor && r->gc_epoch() < gc_epoch_);
    const bool old_in_major = kind == GcKind::kMajor && r->type() == RegionType::kOld;
    if (young || old_in_major) {
      r->set_in_cset(true);
      cset.push_back(r);
      (young ? young_cset_bytes : old_cset_bytes) += r->used();
    }
  });

  // --- Seed worker queues with roots and remembered-set entries. ---
  // Only the first `n` workers participate this pause (the adaptive policy
  // may have shrunk the active count); their queues get all the seed work and
  // every loop below — dispatch, lockstep, termination, stats merge — is
  // bounded by `n` so parked workers never contribute stale state.
  size_t qi = 0;
  const uint32_t n = tuning_.active_gc_threads;
  for (Address* root : roots) {
    queues_->queue(qi++ % n).Push({reinterpret_cast<Address>(root), t0});
  }
  if (kind == GcKind::kMinor) {
    for (Region* r : cset) {
      for (Address slot : r->remset().Take()) {
        queues_->queue(qi++ % n).Push({slot, t0});
      }
    }
  } else {
    // Major: drop every cset remset — a recorded slot may live inside an old
    // region that is itself about to be evacuated, and updating the stale
    // location after its containing object moved would lose the store. The
    // surviving edges are rediscovered (and the remsets rebuilt) as the
    // evacuated copies' slots are scanned. Humongous and large-object spaces
    // are not evacuated, so their slots are scanned conservatively as roots
    // — they are also the only old->old edges no remset tracks.
    for (Region* r : cset) {
      r->remset().Take();
    }
    heap_->ForEachRegion([&](Region* r) {
      if (r->type() != RegionType::kHumongous && r->type() != RegionType::kLarge) {
        return;
      }
      r->remset().Take();
      heap_->ForEachObjectInRegion(r, [&](Address a) {
        const Klass& klass = heap_->klasses().Get(obj::KlassIdOf(a));
        const size_t nslots = obj::RefSlotCount(a, klass);
        for (size_t i = 0; i < nslots; ++i) {
          const Address slot = obj::RefSlot(a, klass, i);
          if (obj::LoadRef(slot) != kNullAddress) {
            queues_->queue(qi++ % n).Push({slot, t0});
          }
        }
      });
    });
  }

  const DeviceCounters heap_before = heap_->heap_device()->counters();
  const DeviceCounters dram_before = heap_->dram_device()->counters();

  // --- Read-mostly sub-phase: parallel copy-and-traverse. ---
  for (uint32_t i = 0; i < n; ++i) {
    Worker& w = workers_[i];
    w.local = GcCycleStats{};
    w.clock.SetTime(t0);
    w.prefetch.SetWindow(tuning_.prefetch_window);
    w.hm_prefetch.SetWindow(tuning_.prefetch_window);
    w.prefetch.Reset();
    w.hm_prefetch.Reset();
    w.cache_state = WriteCacheWorkerState{};
    w.direct_survivor = nullptr;
    w.old_target = nullptr;
    w.site_local.assign(
        site_profiler_ != nullptr ? site_profiler_->site_count() : 0, SiteWorkerDelta{});
  }
  {
    ScopedDeviceActivity heap_activity(heap_->heap_device(), n);
    ScopedDeviceActivity dram_activity(heap_->dram_device(), n);
    RunStepped(n, [this](Worker* w) { return CopyStep(w); });
  }
  uint64_t read_end = t0;
  for (uint32_t i = 0; i < n; ++i) {
    read_end = std::max(read_end, workers_[i].clock.now_ns());
  }
  EmitWorkerSpans(n, "gc.read_phase", t0);

  // A throttle window that opened mid-pause still degrades the write-back:
  // whatever was not already flushed asynchronously goes back synchronously
  // with cache-line stores.
  if (!degraded && injector != nullptr && injector->ThrottleActive(read_end)) {
    degraded = true;
    if (write_cache_ != nullptr) {
      write_cache_->SetDegraded(true);
    }
  }

  // --- Write-only sub-phase: stream cache regions to NVM, clear header map. ---
  uint64_t pause_end = read_end;
  if (write_cache_ != nullptr || HeaderMapActive()) {
    ScopedDeviceActivity heap_activity(heap_->heap_device(), n);
    ScopedDeviceActivity dram_activity(heap_->dram_device(), n);
    for (uint32_t i = 0; i < n; ++i) {
      Worker& w = workers_[i];
      w.clock.SetTime(read_end);
      // Close this worker's open pair so the shared flush pass picks it up.
      w.cache_state.cache_region = nullptr;
      w.cache_state.twin_region = nullptr;
      w.flush_cursor = i;
      w.batch.emplace(&heap_->heap_device()->persist());
    }
    RunStepped(n, [this, n](Worker* w) { return WritebackStep(w, n); });
    for (uint32_t i = 0; i < n; ++i) {
      pause_end = std::max(pause_end, workers_[i].clock.now_ns());
    }
    EmitWorkerSpans(n, "gc.writeback_phase", read_end);
  }

  // --- Epilogue: reclaim the collection set. ---
  std::vector<Region*> twins;
  if (write_cache_ != nullptr) {
    twins = write_cache_->TakePauseTwins();
    for (Region* twin : twins) {
      NVMGC_CHECK(twin->cache_twin() == nullptr);  // Everything must be flushed.
    }
  }
  for (Region* r : cset) {
    heap_->FreeRegion(r);
  }

  // Durability: seal this pause's commit record (flush new live regions,
  // redo-log in-place updates, durable-last seal, release the quarantine).
  GcCycleStats persist_stats;
  if (options_.durable) {
    PersistEpilogue(roots, &pause_end, &persist_stats);
  }

  // --- Assemble cycle statistics. ---
  // Worker locals and persist_stats hold only summed counters; prefetch hits
  // are counted by each worker's queue instead.
  GcCycleStats cycle;
  for (uint32_t i = 0; i < n; ++i) {
    cycle.Accumulate(workers_[i].local);
    cycle.prefetch_hits += workers_[i].prefetch.hits();
  }
  cycle.Accumulate(persist_stats);
  if (site_profiler_ != nullptr) {
    // Fold the worker-local site deltas into the profiler (control thread):
    // survivals per birth site, from which it infers this pause's deaths.
    std::vector<SiteWorkerDelta> merged(site_profiler_->site_count());
    for (uint32_t i = 0; i < n; ++i) {
      const Worker& w = workers_[i];
      for (size_t s = 0; s < w.site_local.size() && s < merged.size(); ++s) {
        merged[s].Merge(w.site_local[s]);
      }
    }
    site_profiler_->OnCycleEnd(merged, kind == GcKind::kMajor);
  }
  cycle.degraded_mode = degraded ? 1 : 0;
  cycle.is_major = kind == GcKind::kMajor ? 1 : 0;
  cycle.young_cset_bytes = young_cset_bytes;
  cycle.old_cset_bytes = old_cset_bytes;
  const DeviceCounters heap_delta = heap_->heap_device()->counters() - heap_before;
  const DeviceCounters dram_delta = heap_->dram_device()->counters() - dram_before;
  cycle.device_read_bytes = heap_delta.read_bytes;
  cycle.device_write_bytes = heap_delta.write_bytes;
  cycle.dram_read_bytes = dram_delta.read_bytes;
  cycle.dram_write_bytes = dram_delta.write_bytes;

  // Drain the ledger buckets into the bandwidth timeline while they are still
  // resident (the ring spans ~9.6 ms of simulated time). Phase windows are
  // half-open and contiguous, so no bucket lands in both.
  size_t timeline_from = 0;
  if (timeline_ != nullptr) {
    timeline_from = timeline_->size();
    timeline_->SamplePhase(gc_epoch_, GcPhaseKind::kRead, t0, read_end, n);
    timeline_->SamplePhase(gc_epoch_, GcPhaseKind::kWriteback, read_end, pause_end, n);
  }

  pause_end += kPauseFixedOverheadNs;
  cycle.start_ns = t0;
  cycle.pause_ns = pause_end - t0;
  cycle.read_phase_ns = read_end - t0;
  cycle.writeback_phase_ns = pause_end - read_end;

  // The whole pause on the control thread's timeline; worker phase spans and
  // their nested flush/clear spans all fall inside it.
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->BindThread(tracer_->control_tid());
    if (degraded) {
      tracer_->EmitInstant("gc.degraded", "gc", t0);
    }
    tracer_->Emit("gc.pause", "gc", t0, pause_end);
    if (options_.durable) {
      // Per-pause persist cost counter tracks (Perfetto; see EXPERIMENTS.md).
      tracer_->EmitCounter("persist.flush_lines", "persist", pause_end,
                           static_cast<double>(cycle.persist_flush_lines));
      tracer_->EmitCounter("persist.fences", "persist", pause_end,
                           static_cast<double>(cycle.persist_fences));
      tracer_->EmitCounter("persist.phase_ns", "persist", pause_end,
                           static_cast<double>(cycle.persist_ns));
    }
    if (options_.generational.enabled) {
      // Generational health tracks (Perfetto; consumed by check_bench_artifacts).
      uint64_t young_used = 0;
      heap_->ForEachRegion([&](Region* r) {
        if (r->is_young()) {
          young_used += r->used();
        }
      });
      tracer_->EmitCounter("gen.young_used_bytes", "gen", pause_end,
                           static_cast<double>(young_used));
      tracer_->EmitCounter("gen.tenured_bytes", "gen", pause_end,
                           static_cast<double>(cycle.bytes_promoted));
      tracer_->EmitCounter("gen.tenure_threshold", "gen", pause_end,
                           static_cast<double>(heap_->config().tenure_age));
      tracer_->EmitCounter("gen.survivor_overflow_bytes", "gen", pause_end,
                           static_cast<double>(cycle.survivor_overflow_bytes));
    }
    if (timeline_ != nullptr) {
      timeline_->EmitCounters(tracer_, timeline_from);
    }
  }

  app_clock->SetTime(pause_end);
  stats_.Add(cycle);
  return cycle;
}

template <typename StepFn>
void CopyCollector::RunStepped(uint32_t n, StepFn step) {
  // Bit i is set while worker i is busy (n <= GcOptions::kMaxGcThreads).
  const uint64_t all = n == 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
  uint64_t busy = all;
  // Binding only routes emitted events, and a disabled tracer emits none.
  const bool bind_tracer = tracer_ != nullptr && tracer_->enabled();
  while (busy != 0) {
    uint64_t rest = busy;
    uint32_t id = static_cast<uint32_t>(std::countr_zero(rest));
    uint64_t min_clock = workers_[id].clock.now_ns();
    for (rest &= rest - 1; rest != 0; rest &= rest - 1) {
      const uint32_t i = static_cast<uint32_t>(std::countr_zero(rest));
      if (workers_[i].clock.now_ns() < min_clock) {
        id = i;
        min_clock = workers_[i].clock.now_ns();
      }
    }
    Worker* w = &workers_[id];
    if (bind_tracer) {
      tracer_->BindThread(id);
    }
    if (!step(w)) {
      busy &= ~(uint64_t{1} << id);
    } else if (busy != all && !queues_->queue(id).empty()) {
      // Only the stepped worker's queue can have grown: idle workers may
      // steal from it again.
      busy = all;
    }
  }
}

bool CopyCollector::CopyStep(Worker* w) {
  TaskQueue& own = queues_->queue(w->id);
  GcTask task;
  if (!own.Pop(&task)) {
    uint32_t victim = 0;
    steal_buffer_.clear();
    if (queues_->StealHalfFor(w->id, &steal_buffer_, &victim) == 0) {
      return false;  // Every queue is empty.
    }
    // A thief (or a worker waking from idle) may be behind the victim: it
    // cannot take the oldest stolen slot before the victim pushed it.
    w->clock.SyncForwardTo(steal_buffer_.front().ready_ns);
    w->clock.Advance(kStealNs + kQueueOpNs * steal_buffer_.size());
    w->local.steals += steal_buffer_.size();
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->EmitInstant("gc.steal", "gc", w->clock.now_ns());
    }
    for (const GcTask& stolen : steal_buffer_) {
      TaintRegionOfSlot(stolen.slot);
      own.Push(stolen);
    }
    // Process one stolen slot now: a worker that only moved work would leave
    // its clock, and so its turn, unchanged, and two idle workers could pass
    // the same slot back and forth forever.
    own.Pop(&task);
  }
  // No slot is processed before it was pushed (a no-op for slots the worker
  // pushed itself, which its clock has already passed).
  w->clock.SyncForwardTo(task.ready_ns);
  w->clock.Advance(kQueueOpNs);
  ProcessSlot(w, task.slot);
  return true;
}

bool CopyCollector::WritebackStep(Worker* w, uint32_t n) {
  if (write_cache_ != nullptr && w->flush_cursor < write_cache_->pause_twin_count()) {
    write_cache_->FlushPauseTwin(w->flush_cursor, &w->clock, &w->local, &*w->batch);
    w->flush_cursor += n;
    return true;
  }
  if (write_cache_ != nullptr) {
    // Durability: each flushed twin was CLWB'd into this worker's batch, and
    // one SFENCE at the batch boundary makes the whole write-back durable
    // (no-ops when the persistence ledger is unconfigured).
    w->batch->Fence(&w->clock);
    w->local.persist_flush_lines += w->batch->flush_lines();
    w->local.persist_fences += w->batch->fences();
    w->local.persist_ns += w->batch->persist_ns();
    w->clock.Advance(kFenceNs);  // Single ordering fence before GC ends.
  }
  if (HeaderMapActive()) {
    header_map_->ClearJournal(&w->hm_journal, &w->clock);
  }
  w->batch.reset();
  return false;
}

void CopyCollector::EmitWorkerSpans(uint32_t n, const char* name, uint64_t start_ns) {
  if (tracer_ == nullptr || !tracer_->enabled()) {
    return;
  }
  for (uint32_t i = 0; i < n; ++i) {
    tracer_->BindThread(i);
    tracer_->Emit(name, "gc", start_ns, workers_[i].clock.now_ns());
  }
}

void CopyCollector::ProcessSlot(Worker* w, Address slot) {
  MemoryDevice* slot_dev = DeviceForAddress(slot);
  Region* slot_region = heap_->RegionFor(slot);
  slot_dev->Access(&w->clock, RandomRead(slot, 8));
  const Address value = obj::LoadRef(slot);
  if (value != kNullAddress) {
    Region* target_region = heap_->RegionFor(value);
    if (target_region != nullptr && target_region->in_cset()) {
      const Address forwarded = Evacuate(w, value);
      obj::StoreRef(slot, forwarded);
      slot_dev->Access(&w->clock, RandomWrite(slot, 8));
      w->local.refs_processed += 1;
      // Remembered-set maintenance: surviving old->young edges are re-recorded
      // so the next young collection still sees them as roots.
      Region* home_region = slot_region;
      Address home_slot = slot;
      if (slot_region != nullptr && slot_region->type() == RegionType::kWriteCache) {
        // Staged copy: the slot's bytes sit in a DRAM cache region, but the
        // object's final home is the NVM twin (kOld in generational mode).
        // An old->young edge must be recorded at the final address — the
        // flush memcpy carries the already-updated slot value there.
        Region* twin = slot_region->cache_twin();
        if (twin != nullptr) {
          home_region = twin;
          home_slot = twin->bottom() + (slot - slot_region->bottom());
        }
      }
      if (home_region != nullptr && home_region->is_old_like()) {
        Region* new_region = heap_->RegionFor(forwarded);
        if (new_region != nullptr && new_region->is_young()) {
          new_region->remset().Add(home_slot);
        }
      }
    }
  }
  if (slot_region != nullptr && slot_region->type() == RegionType::kWriteCache) {
    slot_region->AddPendingSlots(-1);
    if (write_cache_ != nullptr) {
      write_cache_->MaybeAsyncFlush(slot_region->cache_twin(), &w->clock, &w->local);
    }
  }
}

Address CopyCollector::Evacuate(Worker* w, Address old_addr) {
  Region* src_region = heap_->RegionFor(old_addr);
  NVMGC_DCHECK(src_region != nullptr && src_region->in_cset());
  MemoryDevice* src_dev = heap_->DeviceFor(src_region);
  const bool hm = HeaderMapActive();
  PrefetchQueue* hm_prefetch = options_.prefetch_header_map ? &w->hm_prefetch : nullptr;

  if (hm) {
    const Address fwd = header_map_->Get(old_addr, &w->clock, hm_prefetch, &w->local);
    if (fwd != kNullAddress) {
      return fwd;
    }
  }

  // Read the header (mark + klass); software prefetching may hide the miss.
  AccessDescriptor header_read = RandomRead(old_addr, obj::kHeaderBytes);
  if (options_.prefetch && w->prefetch.Consume(old_addr)) {
    header_read.prefetched = true;
  }
  src_dev->Access(&w->clock, header_read);
  const uint64_t mark = obj::LoadMark(old_addr);
  if (obj::IsForwarded(mark)) {
    return obj::ForwardeeOf(mark);
  }

  const Klass& klass = heap_->klasses().Get(obj::KlassIdOf(old_addr));
  const uint64_t array_length =
      klass.kind == KlassKind::kRegular ? 0 : obj::ArrayLength(old_addr);
  const size_t size = obj::SizeOf(klass, array_length);
  const uint32_t age = obj::AgeOf(mark);
  // In a major collection old objects are evacuated old->old; they are
  // already tenured, so they never demote back into the young generation.
  const bool already_old = src_region->type() == RegionType::kOld;
  const bool promote = already_old || age + 1 >= heap_->config().tenure_age;
  w->clock.Advance(kEvacCpuNs);

  CopyTarget target;
  AllocateTarget(w, size, promote, &target);

  // Install the forwarding pointer; exactly one thread wins.
  Address winner;
  if (hm) {
    winner = header_map_->Put(old_addr, target.final, &w->clock, hm_prefetch, &w->hm_journal,
                              &w->local);
    if (winner == kNullAddress) {
      // Bounded probe window exhausted: fall back to the NVM header.
      src_dev->Access(&w->clock, RandomWrite(old_addr, 8));
      const Address prev = obj::CasForward(old_addr, target.final);
      winner = prev == kNullAddress ? target.final : prev;
    }
  } else {
    src_dev->Access(&w->clock, RandomWrite(old_addr, 8));
    const Address prev = obj::CasForward(old_addr, target.final);
    winner = prev == kNullAddress ? target.final : prev;
  }
  if (winner != target.final) {
    RetractTarget(w, target, size);
    return winner;
  }

  // Copy the object and refresh the new header.
  src_dev->Access(&w->clock, SequentialRead(old_addr, static_cast<uint32_t>(size)));
  MemoryDevice* dst_dev = DeviceForAddress(target.physical);
  dst_dev->Access(&w->clock, SequentialWrite(target.physical, static_cast<uint32_t>(size)));
  std::memcpy(reinterpret_cast<void*>(target.physical),
              reinterpret_cast<const void*>(old_addr), size);
  // The age field is 4 bits; old->old copies in major collections saturate it.
  // The allocation-site tag survives every copy.
  obj::StoreMark(target.physical,
                 obj::MarkWithAgeSite(std::min<uint32_t>(age + 1, 15), obj::SiteOf(mark)));

  w->local.objects_copied += 1;
  w->local.bytes_copied += size;
  if (target.promoted && !already_old) {
    w->local.objects_promoted += 1;
    w->local.bytes_promoted += size;
  }
  if (target.staged) {
    w->local.cache_bytes_staged += size;
  }
  if (site_profiler_ != nullptr) {
    // Attribute this copy back to its birth site (untagged when the tag
    // overflows the table — it cannot: tags come from the same profiler).
    uint32_t site = obj::SiteOf(mark);
    if (site >= w->site_local.size()) site = kUntaggedSite;
    SiteWorkerDelta& d = w->site_local[site];
    if (already_old) {
      d.old_copy_objects += 1;
      d.old_copy_bytes += size;
    } else {
      d.copied_objects[age] += 1;
      d.copied_bytes[age] += size;
      if (target.promoted) {
        d.promoted_objects[age] += 1;
        d.promoted_bytes[age] += size;
      }
    }
    if (heap_->config().heap_device == DeviceKind::kNvm && heap_->InHeapArena(target.final)) {
      d.nvm_copy_bytes += size;
    }
    if (target.staged) {
      d.staged_bytes += size;
    }
  }

  // Scan the new copy's reference slots and push work.
  const size_t nslots = obj::RefSlotCount(target.physical, klass);
  if (nslots > 0) {
    const Address first_slot = obj::RefSlot(target.physical, klass, 0);
    dst_dev->Access(&w->clock,
                    SequentialRead(first_slot, static_cast<uint32_t>(8 * nslots)));
    Region* phys_region = heap_->RegionFor(target.physical);
    const bool track =
        phys_region != nullptr && phys_region->type() == RegionType::kWriteCache;
    for (size_t i = 0; i < nslots; ++i) {
      const Address fslot = obj::RefSlot(target.physical, klass, i);
      const Address fval = obj::LoadRef(fslot);
      if (fval == kNullAddress) {
        continue;
      }
      Region* fregion = heap_->RegionFor(fval);
      if (fregion == nullptr || !fregion->in_cset()) {
        continue;
      }
      if (options_.prefetch) {
        w->prefetch.Prefetch(fval);
        w->local.prefetches_issued += 1;
        if (hm && options_.prefetch_header_map) {
          header_map_->PrefetchProbe(fval, &w->hm_prefetch);
        }
      }
      if (track) {
        phys_region->AddPendingSlots(1);
      }
      w->clock.Advance(kQueueOpNs);
      queues_->queue(w->id).Push({fslot, w->clock.now_ns()});
    }
  }
  return target.final;
}

void CopyCollector::AllocateTarget(Worker* w, size_t size, bool promote, CopyTarget* out) {
  out->promoted = promote;
  // Staging policy: the cache absorbs copies headed for NVM. Without the
  // generational heap every survivor lands on NVM, so non-promoted copies
  // stage; with it survivors stay in DRAM and only tenured copies stage
  // (their twins are NVM old regions — see WriteCache's twin_type_).
  const bool generational = options_.generational.enabled;
  const bool cache_eligible = generational ? promote : !promote;
  if (cache_eligible && write_cache_ != nullptr) {
    if (StageableThroughCache(size)) {
      WriteCache::Allocation a;
      if (write_cache_->Allocate(&w->cache_state, size, &a, gc_epoch_, &w->clock, &w->local)) {
        out->physical = a.physical;
        out->final = a.final;
        out->staged = true;
        return;
      }
      w->local.cache_overflow_bytes += size;
      if (w->cache_state.direct_fallback) {
        w->local.cache_fallback_bytes += size;
      }
    } else {
      // PS-style LAB policy: the object is copied outside the buffers the
      // cache stages, so its writes land on NVM directly (Section 4.4).
      w->local.cache_overflow_bytes += size;
    }
  }
  out->staged = false;
  while (true) {
    Region** target = out->promoted ? &w->old_target : &w->direct_survivor;
    const RegionType type = out->promoted ? RegionType::kOld : RegionType::kSurvivor;
    if (*target == nullptr) {
      *target = heap_->AllocateRegion(type);
      if (*target == nullptr) {
        // Only the generational survivor quota may run out mid-evacuation;
        // anything else is genuine heap exhaustion. Overflowing objects are
        // promoted early (straight to NVM old — no restaging through the
        // cache, the worker's pair state may already be degraded).
        NVMGC_CHECK(generational && type == RegionType::kSurvivor);
        w->local.survivor_overflow_bytes += size;
        out->promoted = true;
        continue;
      }
      if (type == RegionType::kSurvivor) {
        (*target)->set_gc_epoch(gc_epoch_);
      }
    }
    const Address addr = (*target)->Allocate(size);
    if (addr != kNullAddress) {
      out->physical = addr;
      out->final = addr;
      return;
    }
    *target = nullptr;  // Region full; it keeps its type and data.
  }
}

void CopyCollector::RetractTarget(Worker* w, const CopyTarget& target, size_t size) {
  if (target.staged) {
    WriteCache::Allocation a;
    a.physical = target.physical;
    a.cache_region = heap_->RegionFor(target.physical);
    write_cache_->Retract(a, size);
    return;
  }
  Region* region = heap_->RegionFor(target.physical);
  NVMGC_DCHECK(region != nullptr && region->top() == target.physical + size);
  region->set_top(target.physical);
  // Keep the worker's target pointer; it still owns the region.
  static_cast<void>(w);
}

void CopyCollector::TaintRegionOfSlot(Address slot) {
  Region* region = heap_->RegionFor(slot);
  if (region != nullptr && region->type() == RegionType::kWriteCache) {
    region->set_steal_tainted(true);
  }
}

void CopyCollector::PersistEpilogue(const std::vector<Address*>& roots, uint64_t* pause_end,
                                    GcCycleStats* cycle) {
  MemoryDevice* dev = heap_->heap_device();
  PersistOrderingLedger* ledger = &dev->persist();
  NVMGC_CHECK_MSG(ledger->enabled(),
                  "durability enabled but the persistence ledger is unconfigured — the Vm "
                  "must Configure() the heap device's ledger before the first pause");
  SimClock ctl;
  ctl.SetTime(*pause_end);
  PersistBatch batch(ledger);

  // Every region the commit must cover: tenured content in the heap arena.
  // Eden and prior survivors were all in the collection set and are already
  // freed, so "live" here is exactly survivor/old/humongous.
  std::vector<Region*> live;
  heap_->ForEachRegion([&](Region* r) {
    if (!heap_->InHeapArena(r->bottom())) {
      return;  // DRAM cache regions are staging only, never durable.
    }
    const RegionType t = r->type();
    if (t == RegionType::kSurvivor || t == RegionType::kOld ||
        t == RegionType::kHumongous || t == RegionType::kLarge) {
      live.push_back(r);
    }
  });

  // 1. New regions (not in the previous sealed commit): their content is
  // invisible to a rollback, so flush in place and fence. Regions already
  // fenced by the write-back (or async flushing) have no dirty lines left and
  // cost nothing here.
  for (Region* r : live) {
    if (!r->durable_committed() && r->used() > 0) {
      batch.FlushRange(r->bottom(), r->used(), &ctl);
    }
  }

  // 2. In-place updates to previously committed regions (remembered-set slot
  // rewrites during this pause, mutator writes to old objects since the last
  // pause) go through a content redo log instead of an in-place flush: a
  // crash before this pause's seal must still roll back to the previous
  // epoch's in-place content, a crash after it replays the log.
  const Address area = heap_->commit_area_base();
  std::vector<uint64_t> redo_offsets;
  for (Region* r : live) {
    if (r->durable_committed() && r->used() > 0) {
      ledger->CollectDirtyLines(r->bottom(), r->used(), &redo_offsets);
    }
  }
  const size_t redo_bytes = redo_offsets.size() * sizeof(RedoEntry);
  NVMGC_CHECK_MSG(redo_bytes <= commit_layout_.redo_slot_bytes,
                  "durability redo log overflow: the in-place updates of this pause exceed "
                  "the heap-derived redo slot (see ComputeCommitLayout)");
  std::vector<RedoEntry> redo(redo_offsets.size());
  const Address redo_base = area + commit_layout_.redo_offset(gc_epoch_);
  if (!redo.empty()) {
    for (size_t i = 0; i < redo_offsets.size(); ++i) {
      redo[i].arena_offset = redo_offsets[i];
      std::memcpy(redo[i].content,
                  reinterpret_cast<const void*>(heap_->heap_base() + redo_offsets[i]),
                  sizeof(redo[i].content));
    }
    dev->Access(&ctl, SequentialWrite(redo_base, static_cast<uint32_t>(redo_bytes)));
    std::memcpy(reinterpret_cast<void*>(redo_base), redo.data(), redo_bytes);
    batch.FlushRange(redo_base, redo_bytes, &ctl);
  }
  batch.Fence(&ctl);  // New-region content + redo log durable before any seal write.
  const uint64_t redo_checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(redo.data()), redo_bytes);

  // 3. Commit record, sealed durable-last. The slot alternates by epoch
  // parity, so the previous epoch's sealed record is never touched and one of
  // the two slots is always intact.
  const Address record_base = area + commit_layout_.record_offset(gc_epoch_);
  const Address seal_addr = area + commit_layout_.seal_offset(gc_epoch_);

  // 3a. Clear the stale seal (this slot last held epoch-2's commit) so a torn
  // payload below can never pair with a valid-looking seal.
  uint64_t seal_word = 0;
  dev->Access(&ctl, RandomWrite(seal_addr, sizeof(seal_word)));
  std::memcpy(reinterpret_cast<void*>(seal_addr), &seal_word, sizeof(seal_word));
  batch.FlushRange(seal_addr, sizeof(seal_word), &ctl);
  batch.Fence(&ctl);

  // 3b. Payload: header + region table + root offsets (checksummed).
  std::vector<CommitRegionEntry> entries;
  entries.reserve(live.size());
  for (Region* r : live) {
    CommitRegionEntry e;
    e.index = r->index();
    e.type = static_cast<uint32_t>(r->type());
    e.used_bytes = r->used();
    e.gc_epoch = r->gc_epoch();
    entries.push_back(e);
  }
  std::vector<uint64_t> root_offsets;
  root_offsets.reserve(roots.size());
  for (Address* root : roots) {
    const Address v = *root;
    root_offsets.push_back(heap_->InHeapArena(v) ? v - heap_->heap_base() : kNullRootOffset);
  }
  const size_t payload_bytes = sizeof(CommitHeader) +
                               entries.size() * sizeof(CommitRegionEntry) +
                               root_offsets.size() * sizeof(uint64_t);
  NVMGC_CHECK_MSG(payload_bytes + sizeof(uint64_t) <= commit_layout_.record_slot_bytes,
                  "durability commit record overflow: the region table and roots exceed the "
                  "heap-derived record slot (see ComputeCommitLayout)");
  std::vector<uint8_t> payload(payload_bytes);
  uint8_t* cursor = payload.data() + sizeof(CommitHeader);
  std::memcpy(cursor, entries.data(), entries.size() * sizeof(CommitRegionEntry));
  cursor += entries.size() * sizeof(CommitRegionEntry);
  std::memcpy(cursor, root_offsets.data(), root_offsets.size() * sizeof(uint64_t));
  CommitHeader header;
  header.magic = kCommitMagic;
  header.epoch = gc_epoch_;
  header.commit_ns = ctl.now_ns();
  header.region_count = entries.size();
  header.root_count = root_offsets.size();
  header.redo_entry_count = redo.size();
  header.redo_checksum = redo_checksum;
  header.payload_checksum = Fnv1a(payload.data() + sizeof(CommitHeader),
                                  payload_bytes - sizeof(CommitHeader));
  std::memcpy(payload.data(), &header, sizeof(CommitHeader));
  dev->Access(&ctl, SequentialWrite(record_base, static_cast<uint32_t>(payload_bytes)));
  std::memcpy(reinterpret_cast<void*>(record_base), payload.data(), payload_bytes);
  batch.FlushRange(record_base, payload_bytes, &ctl);
  batch.Fence(&ctl);

  // 3c. The seal: one 8-byte durable write. Once this fence completes, the
  // commit is the recovery point.
  seal_word = SealValue(gc_epoch_);
  dev->Access(&ctl, RandomWrite(seal_addr, sizeof(seal_word)));
  std::memcpy(reinterpret_cast<void*>(seal_addr), &seal_word, sizeof(seal_word));
  batch.FlushRange(seal_addr, sizeof(seal_word), &ctl);
  batch.Fence(&ctl);
  commit_instants_.push_back(ctl.now_ns());

  // 4. The sealed commit supersedes the previous epoch, so the redo-logged
  // lines may now advance in place.
  for (Region* r : live) {
    if (r->durable_committed() && r->used() > 0) {
      batch.FlushRange(r->bottom(), r->used(), &ctl);
    }
  }
  batch.Fence(&ctl);

  // 5. Everything live is covered by the new seal: future in-place updates go
  // through the redo log, and regions freed while listed in the *previous*
  // commit (quarantined by Heap::FreeRegion) are safe to reuse.
  for (Region* r : live) {
    r->set_durable_committed(true);
  }
  heap_->ReleaseQuarantinedRegions();

  cycle->persist_flush_lines += batch.flush_lines();
  cycle->persist_fences += batch.fences();
  cycle->persist_ns += batch.persist_ns();
  cycle->persist_redo_entries += redo.size();
  cycle->persist_commit_bytes += payload_bytes;
  *pause_end = ctl.now_ns();
}

}  // namespace nvmgc
