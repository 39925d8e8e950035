// Per-collection and accumulated GC statistics.

#ifndef NVMGC_SRC_GC_GC_STATS_H_
#define NVMGC_SRC_GC_GC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

namespace nvmgc {

// Cycle kind (generational mode). Non-generational runs only perform minor
// collections over the all-young heap.
enum class GcKind : uint8_t {
  kMinor,  // Young generation only (eden + aged survivors).
  kMajor,  // Young + old regions; large-object/humongous spaces are marked in place.
};

inline const char* GcKindName(GcKind kind) {
  return kind == GcKind::kMajor ? "major" : "minor";
}

struct GcCycleStats {
  uint64_t start_ns = 0;  // Simulated time at which the pause began.
  uint64_t pause_ns = 0;
  uint64_t read_phase_ns = 0;       // Copy-and-traverse (read-mostly) sub-phase.
  uint64_t writeback_phase_ns = 0;  // Write-only sub-phase (write cache only).

  // Generational split (is_major stays 0 outside generational mode).
  uint64_t is_major = 0;                 // 1 when this cycle was a major collection.
  uint64_t young_cset_bytes = 0;         // Young-region bytes in the collection set.
  uint64_t old_cset_bytes = 0;           // Old-region bytes in the cset (major only).
  uint64_t survivor_overflow_bytes = 0;  // Promoted early: DRAM survivor space full.

  uint64_t objects_copied = 0;
  uint64_t bytes_copied = 0;
  uint64_t objects_promoted = 0;
  uint64_t bytes_promoted = 0;
  uint64_t refs_processed = 0;
  uint64_t steals = 0;

  // Write cache.
  uint64_t cache_bytes_staged = 0;      // Bytes copied through the DRAM cache.
  uint64_t cache_overflow_bytes = 0;    // Copied directly to NVM (cap hit).
  uint64_t regions_flushed_sync = 0;
  uint64_t regions_flushed_async = 0;
  uint64_t regions_steal_tainted = 0;

  // Header map.
  uint64_t header_map_installs = 0;   // Forwardings kept in DRAM.
  uint64_t header_map_overflows = 0;  // Fell back to NVM header CAS.
  uint64_t header_map_hits = 0;       // Lookups resolved from DRAM.

  // Fault injection & graceful degradation.
  uint64_t cache_fault_denials = 0;     // Pair allocations denied by the injector.
  uint64_t cache_fallback_workers = 0;  // Workers degraded to direct-to-NVM copying.
  uint64_t cache_fallback_bytes = 0;    // Bytes copied directly while degraded.
  uint64_t degraded_mode = 0;           // 1 when async/NT stores were disabled.
  uint64_t header_map_fault_probes = 0;  // HM probes charged under an active fault.

  // Device traffic deltas over the pause: the heap device, and the DRAM
  // device (staging copies, header-map probes and clears).
  uint64_t device_read_bytes = 0;
  uint64_t device_write_bytes = 0;
  uint64_t dram_read_bytes = 0;
  uint64_t dram_write_bytes = 0;

  // Prefetching.
  uint64_t prefetches_issued = 0;
  uint64_t prefetch_hits = 0;

  // Durability (all zero outside durability mode).
  uint64_t persist_flush_lines = 0;   // 64B lines CLWB'd during the pause.
  uint64_t persist_fences = 0;        // Store fences issued.
  uint64_t persist_ns = 0;            // Simulated time in flushes + fences.
  uint64_t persist_redo_entries = 0;  // In-place-update redo log entries.
  uint64_t persist_commit_bytes = 0;  // Commit record payload bytes written.

  GcKind kind() const { return is_major != 0 ? GcKind::kMajor : GcKind::kMinor; }

  // Folds `other` into this cycle, field by field, under each field's
  // kGcCycleFields merge rule.
  void Accumulate(const GcCycleStats& other);
};

// How a field folds when cycles (or worker-local partial cycles) combine.
enum class FieldMerge : uint8_t {
  kSum,   // Counters and durations add.
  kNone,  // A timestamp: meaningless in a total, left untouched.
};

struct GcCycleField {
  const char* metric;  // Stable dotted per-pause metric name; nullptr if not exported.
  uint64_t GcCycleStats::* member;
  FieldMerge merge;
};

// The single list of GcCycleStats fields. Totals, worker merges, per-pause
// metric snapshots and their name list (src/obs/metrics.cc), and through
// them the lifetime counters and incident counters, all iterate it, so a
// field cannot be dropped from one of them by a forgotten edit.
inline constexpr GcCycleField kGcCycleFields[] = {
    {nullptr, &GcCycleStats::start_ns, FieldMerge::kNone},
    {"gc.pause_ns", &GcCycleStats::pause_ns, FieldMerge::kSum},
    {"gc.read_phase_ns", &GcCycleStats::read_phase_ns, FieldMerge::kSum},
    {"gc.writeback_phase_ns", &GcCycleStats::writeback_phase_ns, FieldMerge::kSum},
    {"gc.major_pauses", &GcCycleStats::is_major, FieldMerge::kSum},
    {"gen.young_cset_bytes", &GcCycleStats::young_cset_bytes, FieldMerge::kSum},
    {"gen.old_cset_bytes", &GcCycleStats::old_cset_bytes, FieldMerge::kSum},
    {"gen.survivor_overflow_bytes", &GcCycleStats::survivor_overflow_bytes, FieldMerge::kSum},
    {"gc.objects_copied", &GcCycleStats::objects_copied, FieldMerge::kSum},
    {"gc.bytes_copied", &GcCycleStats::bytes_copied, FieldMerge::kSum},
    {"gc.objects_promoted", &GcCycleStats::objects_promoted, FieldMerge::kSum},
    {"gc.bytes_promoted", &GcCycleStats::bytes_promoted, FieldMerge::kSum},
    {"gc.refs_processed", &GcCycleStats::refs_processed, FieldMerge::kSum},
    {"gc.steals", &GcCycleStats::steals, FieldMerge::kSum},
    {"cache.bytes_staged", &GcCycleStats::cache_bytes_staged, FieldMerge::kSum},
    {"cache.overflow_bytes", &GcCycleStats::cache_overflow_bytes, FieldMerge::kSum},
    {"cache.regions_flushed_sync", &GcCycleStats::regions_flushed_sync, FieldMerge::kSum},
    {"cache.regions_flushed_async", &GcCycleStats::regions_flushed_async, FieldMerge::kSum},
    {"cache.regions_steal_tainted", &GcCycleStats::regions_steal_tainted, FieldMerge::kSum},
    {"hm.installs", &GcCycleStats::header_map_installs, FieldMerge::kSum},
    {"hm.overflows", &GcCycleStats::header_map_overflows, FieldMerge::kSum},
    {"hm.hits", &GcCycleStats::header_map_hits, FieldMerge::kSum},
    {"cache.fault_denials", &GcCycleStats::cache_fault_denials, FieldMerge::kSum},
    {"cache.fallback_workers", &GcCycleStats::cache_fallback_workers, FieldMerge::kSum},
    {"cache.fallback_bytes", &GcCycleStats::cache_fallback_bytes, FieldMerge::kSum},
    {"gc.degraded_pauses", &GcCycleStats::degraded_mode, FieldMerge::kSum},
    {"hm.fault_probes", &GcCycleStats::header_map_fault_probes, FieldMerge::kSum},
    {"device.heap.read_bytes", &GcCycleStats::device_read_bytes, FieldMerge::kSum},
    {"device.heap.write_bytes", &GcCycleStats::device_write_bytes, FieldMerge::kSum},
    {"device.dram.read_bytes", &GcCycleStats::dram_read_bytes, FieldMerge::kSum},
    {"device.dram.write_bytes", &GcCycleStats::dram_write_bytes, FieldMerge::kSum},
    {"prefetch.issued", &GcCycleStats::prefetches_issued, FieldMerge::kSum},
    {"prefetch.hits", &GcCycleStats::prefetch_hits, FieldMerge::kSum},
    {"persist.flush_lines", &GcCycleStats::persist_flush_lines, FieldMerge::kSum},
    {"persist.fences", &GcCycleStats::persist_fences, FieldMerge::kSum},
    {"persist.ns", &GcCycleStats::persist_ns, FieldMerge::kSum},
    {"persist.redo_entries", &GcCycleStats::persist_redo_entries, FieldMerge::kSum},
    {"persist.commit_bytes", &GcCycleStats::persist_commit_bytes, FieldMerge::kSum},
};

// One row per field: a field added without a row, or a row deleted, fails
// here; a member listed twice fails the check below.
static_assert(sizeof(GcCycleStats) == std::size(kGcCycleFields) * sizeof(uint64_t),
              "every GcCycleStats field needs exactly one kGcCycleFields row");
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kGcCycleFields); ++i) {
        for (size_t j = i + 1; j < std::size(kGcCycleFields); ++j) {
          if (kGcCycleFields[i].member == kGcCycleFields[j].member) {
            return false;
          }
        }
      }
      return true;
    }(),
    "a GcCycleStats field appears in two kGcCycleFields rows");

inline void GcCycleStats::Accumulate(const GcCycleStats& other) {
  for (const GcCycleField& f : kGcCycleFields) {
    if (f.merge == FieldMerge::kSum) {
      this->*f.member += other.*f.member;
    }
  }
}

class GcStats {
 public:
  void Add(const GcCycleStats& cycle) { cycles_.push_back(cycle); }

  const std::vector<GcCycleStats>& cycles() const { return cycles_; }
  size_t gc_count() const { return cycles_.size(); }

  uint64_t total_pause_ns() const {
    uint64_t total = 0;
    for (const auto& c : cycles_) {
      total += c.pause_ns;
    }
    return total;
  }

  // Every field folded under its kGcCycleFields merge rule.
  GcCycleStats Totals() const {
    GcCycleStats t;
    for (const auto& c : cycles_) {
      t.Accumulate(c);
    }
    return t;
  }

 private:
  std::vector<GcCycleStats> cycles_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_GC_GC_STATS_H_
