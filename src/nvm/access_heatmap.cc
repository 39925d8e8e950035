#include "src/nvm/access_heatmap.h"

#include <algorithm>
#include <bit>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/single_writer.h"

namespace nvmgc {

void AccessHeatmap::Configure(uint64_t base, uint64_t region_bytes, uint32_t regions) {
  arenas_.clear();
  slot_count_ = 0;
  AddArena(base, region_bytes, regions);
}

uint32_t AccessHeatmap::AddArena(uint64_t base, uint64_t region_bytes, uint32_t regions) {
  NVMGC_CHECK_MSG(std::has_single_bit(region_bytes),
                  "heatmap region_bytes must be a power of two");
  Arena arena;
  arena.base = base;
  arena.end = base + region_bytes * regions;
  arena.region_shift = static_cast<uint32_t>(std::countr_zero(region_bytes));
  arena.regions = regions;
  arena.slot_offset = slot_count_;
  arena.slots = std::make_unique<Slot[]>(regions);
  arenas_.push_back(std::move(arena));
  slot_count_ += regions;
  return arenas_.back().slot_offset;
}

void AccessHeatmap::Charge(const AccessDescriptor& d) {
  const Arena* arena = nullptr;
  for (const Arena& a : arenas_) {
    if (d.address >= a.base && d.address < a.end) {
      arena = &a;
      break;
    }
  }
  if (arena == nullptr) {
    return;
  }
  Slot& slot = arena->slots[(d.address - arena->base) >> arena->region_shift];
  if (d.op == AccessOp::kRead) {
    SingleWriterAdd(&slot.read_bytes, d.bytes);
    SingleWriterAdd(&slot.read_ops, 1);
    return;
  }
  SingleWriterAdd(&slot.write_bytes, d.bytes);
  SingleWriterAdd(&slot.write_ops, 1);
  // A write continues the region's stream when it starts exactly where the
  // previous write into the region ended. Writes from different logical
  // threads interleave in simulated-time order on the one host thread, so two
  // interleaved streams into one region count as discontiguous, as they are
  // at the device.
  const uint64_t prev_end = slot.last_write_end.load(std::memory_order_relaxed);
  slot.last_write_end.store(d.address + d.bytes, std::memory_order_relaxed);
  if (prev_end != 0 && prev_end != d.address) {
    SingleWriterAdd(&slot.discontiguous_writes, 1);
  }
}

std::vector<RegionHeat> AccessHeatmap::Snapshot() const {
  std::vector<RegionHeat> out;
  out.reserve(slot_count_);
  for (const Arena& a : arenas_) {
    for (uint32_t i = 0; i < a.regions; ++i) {
      const Slot& s = a.slots[i];
      RegionHeat heat;
      heat.region = a.slot_offset + i;
      heat.read_bytes = s.read_bytes.load(std::memory_order_relaxed);
      heat.write_bytes = s.write_bytes.load(std::memory_order_relaxed);
      heat.read_ops = s.read_ops.load(std::memory_order_relaxed);
      heat.write_ops = s.write_ops.load(std::memory_order_relaxed);
      heat.discontiguous_writes = s.discontiguous_writes.load(std::memory_order_relaxed);
      out.push_back(heat);
    }
  }
  return out;
}

HeatmapTotals AccessHeatmap::Totals() const {
  HeatmapTotals t;
  for (const Arena& a : arenas_) {
    for (uint32_t i = 0; i < a.regions; ++i) {
      const Slot& s = a.slots[i];
      const uint64_t reads = s.read_ops.load(std::memory_order_relaxed);
      const uint64_t writes = s.write_ops.load(std::memory_order_relaxed);
      t.regions_read += reads > 0 ? 1 : 0;
      t.regions_written += writes > 0 ? 1 : 0;
      t.write_ops += writes;
      t.discontiguous_writes += s.discontiguous_writes.load(std::memory_order_relaxed);
      t.max_region_write_bytes = std::max(t.max_region_write_bytes,
                                          s.write_bytes.load(std::memory_order_relaxed));
    }
  }
  return t;
}

void AccessHeatmap::ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const {
  if (!configured()) {
    return;
  }
  const HeatmapTotals t = Totals();
  metrics->SetGauge(prefix + ".heatmap.regions_read", t.regions_read);
  metrics->SetGauge(prefix + ".heatmap.regions_written", t.regions_written);
  metrics->SetGauge(prefix + ".heatmap.write_ops", t.write_ops);
  metrics->SetGauge(prefix + ".heatmap.discontiguous_writes", t.discontiguous_writes);
  metrics->SetGauge(prefix + ".heatmap.max_region_write_bytes", t.max_region_write_bytes);
  // Gauges are integers; publish the sequentiality evidence as permille.
  metrics->SetGauge(prefix + ".heatmap.contiguous_write_permille",
                    static_cast<uint64_t>(t.contiguous_write_fraction() * 1000.0 + 0.5));
}

}  // namespace nvmgc
