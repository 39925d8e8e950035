// Collector configuration (the analog of -XX: flags).
//
// Prefer GcOptionsBuilder (chainable, validated at Build()) or the presets
// below over poking fields directly: the Vm constructor rejects invalid
// combinations with GcOptions::Validate()'s actionable error message, so a
// misconfiguration fails fast instead of silently running the wrong collector.

#ifndef NVMGC_SRC_GC_GC_OPTIONS_H_
#define NVMGC_SRC_GC_GC_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/nvm/prefetch_queue.h"

namespace nvmgc {

enum class CollectorKind : uint8_t {
  kG1,                // Garbage-First-style regional young GC (default).
  kParallelScavenge,  // PS-style young GC with local allocation buffers.
};

const char* CollectorKindName(CollectorKind kind);

// Configuration of the generational NVM-tiered heap (src/heap + src/gc):
// when enabled, allocation goes to a DRAM-resident young generation (eden +
// survivor regions served from the DRAM arena), survivors age in place and
// are tenured into NVM old regions — through the write cache when it is on —
// once they reach HeapConfig::tenure_age copies. The young generation is a
// quarter of the heap (the paper's 16 GiB heap / 4 GiB young space), and
// objects of at least region_bytes/8 bypass it entirely: they are placed in
// the NVM large-object space, never copied. Minor collections evacuate only
// the young generation (the old→young remembered set provides the extra
// roots); major collections also evacuate old regions. The young generation
// is deliberately volatile: like the DRAM header map, it holds no committed
// state, so durability's commit protocol covers only the NVM generations.
// Only the switch is settable; callers, the benchmark suite among them, read
// it as gc.generational.enabled.
struct GenerationalOptions {
  bool enabled = false;
};

struct GcOptions {
  // The collector steps its workers from a 64-bit busy mask.
  static constexpr uint32_t kMaxGcThreads = 64;

  CollectorKind collector = CollectorKind::kG1;
  uint32_t gc_threads = 8;  // In [1, kMaxGcThreads].

  // --- Paper optimizations ---
  bool use_write_cache = false;
  // Write-cache capacity in bytes; 0 means the paper default of heap/32.
  size_t write_cache_bytes = 0;
  // Remove the cap entirely (Figure 11 "sync-unlimited").
  bool unlimited_write_cache = false;

  bool use_header_map = false;
  // Header-map capacity in bytes; 0 means the paper default of heap/32.
  size_t header_map_bytes = 0;
  // The header map only pays off once reads are bandwidth-starved; below this
  // thread count it is bypassed (paper default 8).
  uint32_t header_map_min_threads = 8;

  // Non-temporal (streaming) stores for write-cache write-back.
  bool use_non_temporal = false;
  // Flush cache regions asynchronously as they become ready (Section 4.2).
  bool async_flush = false;

  // Software prefetching on work-stack push. Vanilla G1 already does this;
  // vanilla PS does not (Section 4.4).
  bool prefetch = true;
  // Extend prefetching to header-map probe lines.
  bool prefetch_header_map = false;

  // --- Durability ---
  // Opt-in crash consistency for the NVM heap (src/nvm/persist_ledger.h +
  // src/recovery/): the write cache's sequential write-back becomes a
  // persistence batch (flush per drained run, fence at batch boundaries) and
  // every pause ends with a durable-last commit record, so a crash at any
  // simulated instant rolls back to the last sealed commit. Flush and fence
  // costs come from the heap device's DeviceProfile; the commit area is sized
  // from the heap geometry (ComputeCommitLayout).
  bool durable = false;

  // --- Adaptive policy ---
  // Per-pause feedback tuning of the knobs above (src/policy/): between
  // pauses the controller retunes write-cache capacity, header-map gating and
  // size, async flushing, prefetch distance and GC thread count from the
  // previous pauses' measured behavior, inside clamp ranges the PolicyEngine
  // derives from this configuration and the heap geometry.
  bool adaptive_policy = false;

  // --- Generational heap ---
  // DRAM young generation with age-based tenuring into the NVM old
  // generation (see GenerationalOptions).
  GenerationalOptions generational;

  // Write-cache and header-map capacities for a heap arena of
  // `heap_arena_bytes`: the explicit write_cache_bytes / header_map_bytes,
  // or the paper default of heap/32 when they are 0.
  size_t WriteCacheBytesFor(size_t heap_arena_bytes) const {
    return write_cache_bytes != 0 ? write_cache_bytes : heap_arena_bytes / 32;
  }
  size_t HeaderMapBytesFor(size_t heap_arena_bytes) const {
    return header_map_bytes != 0 ? header_map_bytes : heap_arena_bytes / 32;
  }

  // Returns an empty string when the configuration is coherent, otherwise an
  // actionable description of the first problem found (what is wrong and
  // which setter/flag fixes it). Checked by the Vm constructor.
  std::string Validate() const;
  bool valid() const { return Validate().empty(); }
};

// The per-pause mutable subset of GcOptions. The collector consumes a GcTuning
// at the start of every pause; between pauses the policy engine (src/policy/)
// rewrites it within its clamp ranges. DefaultGcTuning reproduces the static
// configuration exactly, so a Vm without the adaptive policy behaves as if the
// tuning layer did not exist.
struct GcTuning {
  // Workers participating in the next pause, in [1, gc_threads]. Inactive
  // workers stay parked; their queues receive no seed work.
  uint32_t active_gc_threads = 1;
  // Write-cache capacity cap; 0 = keep the constructed capacity.
  size_t write_cache_capacity_bytes = 0;
  // Overrides the static >= header_map_min_threads gate.
  bool header_map_enabled = false;
  // Header-map table size (entries, power of two); 0 = keep the current size.
  size_t header_map_entries = 0;
  bool async_flush = false;
  // Outstanding-prefetch budget (the prefetch distance), clamped to
  // [1, PrefetchQueue::kCapacity].
  uint32_t prefetch_window = PrefetchQueue::kCapacity;
};

GcTuning DefaultGcTuning(const GcOptions& options);

// Chainable construction of a validated GcOptions. Build() check-fails with
// the Validate() message on an incoherent combination; start from a preset
// with the one-argument constructor to tweak a known-good base.
class GcOptionsBuilder {
 public:
  GcOptionsBuilder() = default;
  explicit GcOptionsBuilder(GcOptions base) : o_(base) {}

  GcOptionsBuilder& Collector(CollectorKind kind);
  GcOptionsBuilder& GcThreads(uint32_t threads);
  GcOptionsBuilder& WriteCache(bool on = true);
  GcOptionsBuilder& WriteCacheBytes(size_t bytes);
  GcOptionsBuilder& UnlimitedWriteCache(bool on = true);
  GcOptionsBuilder& HeaderMap(bool on = true);
  GcOptionsBuilder& HeaderMapBytes(size_t bytes);
  GcOptionsBuilder& HeaderMapMinThreads(uint32_t threads);
  GcOptionsBuilder& NonTemporal(bool on = true);
  GcOptionsBuilder& AsyncFlush(bool on = true);
  GcOptionsBuilder& Prefetch(bool on = true);
  GcOptionsBuilder& PrefetchHeaderMap(bool on = true);
  GcOptionsBuilder& AdaptivePolicy(bool on = true);
  GcOptionsBuilder& Durability(bool on = true);
  GcOptionsBuilder& Generational(bool on = true);

  // Validates and returns the options; dies with the Validate() message on an
  // invalid combination.
  GcOptions Build() const;
  // Escape hatch for tests that exercise the invalid paths deliberately.
  GcOptions BuildUnchecked() const { return o_; }

 private:
  GcOptions o_;
};

// --- Presets matching the paper's evaluated configurations ---

// "vanilla": unmodified collector (G1 ships with prefetch; PS does not).
GcOptions VanillaOptions(CollectorKind collector, uint32_t threads);

// "+writecache": write cache only.
GcOptions WriteCacheOptions(CollectorKind collector, uint32_t threads);

// "+all": write cache + header map + non-temporal write-back + prefetching
// (extended to the header map).
GcOptions AllOptimizationsOptions(CollectorKind collector, uint32_t threads);

// "adaptive": +all with asynchronous flushing, governed by the policy engine
// — every optimization starts enabled and the controller retunes from there.
GcOptions AdaptiveOptions(CollectorKind collector, uint32_t threads);

// "durable": +all with durability mode — crash-consistent write-back and
// per-pause commit records. Requires an NVM-backed tenured heap (the Vm
// constructor enforces this, since the check needs the HeapConfig).
GcOptions DurableOptions(CollectorKind collector, uint32_t threads);

// "generational": +all with the DRAM young generation — most objects die in
// DRAM and never touch NVM; only tenured survivors and large objects do.
GcOptions GenerationalGcOptions(CollectorKind collector, uint32_t threads);

}  // namespace nvmgc

#endif  // NVMGC_SRC_GC_GC_OPTIONS_H_
