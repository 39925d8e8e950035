// Per-region access heatmap for a simulated memory device.
//
// Divides a device's arena into fixed-size slots (one per heap region) and
// counts, per slot, the read/write bytes and the *discontiguous* writes — a
// write whose start address is not the end of the previous write into the
// same slot. The discontiguity count is the direct, spatial evidence for the
// paper's central claim: the vanilla collector scatters small random writes
// (forwarding installs, slot updates) across survivor regions, while the
// write cache turns each region's write-back into one contiguous stream.
// Optane behavior hinges on exactly this distinction — the device's 256-byte
// XPLine write amplification punishes discontiguous sub-line writes.

#ifndef NVMGC_SRC_NVM_ACCESS_HEATMAP_H_
#define NVMGC_SRC_NVM_ACCESS_HEATMAP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/nvm/access.h"

namespace nvmgc {

class MetricsRegistry;

// Plain-value snapshot of one region slot (see AccessHeatmap::Snapshot).
struct RegionHeat {
  uint32_t region = 0;  // Slot index == region index within the arena.
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;
  uint64_t discontiguous_writes = 0;

  // Fraction of writes that continued the previous write's stream. 1.0 for an
  // untouched or perfectly sequential region.
  double contiguous_write_fraction() const {
    if (write_ops == 0) {
      return 1.0;
    }
    return 1.0 - static_cast<double>(discontiguous_writes) / static_cast<double>(write_ops);
  }
};

// Aggregate over all slots (what ExportMetrics publishes as gauges).
struct HeatmapTotals {
  uint64_t regions_read = 0;     // Slots with at least one read.
  uint64_t regions_written = 0;  // Slots with at least one write.
  uint64_t write_ops = 0;
  uint64_t discontiguous_writes = 0;
  uint64_t max_region_write_bytes = 0;

  double contiguous_write_fraction() const {
    if (write_ops == 0) {
      return 1.0;
    }
    return 1.0 - static_cast<double>(discontiguous_writes) / static_cast<double>(write_ops);
  }
};

// Single-writer like its device: one host thread charges it at a time (see
// src/util/single_writer.h), so a charge is a few relaxed loads and stores.
// Unconfigured heatmaps ignore every charge; addresses outside the configured
// arenas are ignored too (mutator handles and other host memory).
//
// A heatmap covers one or more disjoint arenas: a private device has one (its
// Vm's heap arena), a shared fleet device has one per tenant Vm. Slots are
// numbered across arenas in registration order, so `region` in RegionHeat is
// a global slot index. Arenas must be registered (at Vm/Heap construction)
// before their addresses see traffic; registration is not thread-safe against
// concurrent Charge on the *same* heatmap configuration step, matching how
// Vms are constructed.
class AccessHeatmap {
 public:
  AccessHeatmap() = default;

  AccessHeatmap(const AccessHeatmap&) = delete;
  AccessHeatmap& operator=(const AccessHeatmap&) = delete;

  // Drops every arena, then covers [base, base + region_bytes * regions) with
  // one slot per region (single-arena compatibility entry point).
  // `region_bytes` must be a power of two (a charge shifts, not divides).
  void Configure(uint64_t base, uint64_t region_bytes, uint32_t regions);
  // Appends an arena without touching existing ones; returns its first slot
  // index. Used by Heaps binding onto a shared device.
  uint32_t AddArena(uint64_t base, uint64_t region_bytes, uint32_t regions);
  bool configured() const { return !arenas_.empty(); }
  uint32_t arena_count() const { return static_cast<uint32_t>(arenas_.size()); }
  uint32_t regions() const { return slot_count_; }

  void Charge(const AccessDescriptor& d);

  // Copies out the per-region counters (index == slot == region index).
  std::vector<RegionHeat> Snapshot() const;
  HeatmapTotals Totals() const;

  // Publishes aggregate gauges under "<prefix>.heatmap.*": regions_read,
  // regions_written, write_ops, discontiguous_writes,
  // max_region_write_bytes, contiguous_write_permille.
  void ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const;

 private:
  struct Slot {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> read_ops{0};
    std::atomic<uint64_t> write_ops{0};
    std::atomic<uint64_t> discontiguous_writes{0};
    // End address of the most recent write into this slot (0 = none yet).
    std::atomic<uint64_t> last_write_end{0};
  };

  struct Arena {
    uint64_t base = 0;
    uint64_t end = 0;
    uint32_t region_shift = 0;  // log2(region_bytes).
    uint32_t regions = 0;
    uint32_t slot_offset = 0;
    // One heap block per arena: AddArena grows arenas_ without relocating
    // the slots of earlier arenas.
    std::unique_ptr<Slot[]> slots;
  };

  std::vector<Arena> arenas_;
  uint32_t slot_count_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_ACCESS_HEATMAP_H_
