#include "src/recovery/commit_record.h"

#include <algorithm>

namespace nvmgc {

namespace {
constexpr size_t AlignUp(size_t n, size_t a) { return (n + a - 1) / a * a; }
}  // namespace

CommitLayout ComputeCommitLayout(const HeapConfig& heap) {
  const size_t heap_bytes = heap.region_bytes * heap.heap_regions;
  // Reserve one root slot per 128 heap bytes (a root-heavy workload keeps a
  // handle per small live object, so the count scales with the heap, not with
  // some fixed budget), floored for tiny test heaps. Slot size costs only
  // arena footprint — the per-pause write is the actual payload — and the
  // collector check-fails if a run still outgrows the slot.
  const size_t root_slots = std::max<size_t>(8192, heap_bytes / 128);
  const size_t payload = sizeof(CommitHeader) + sizeof(CommitRegionEntry) * heap.heap_regions +
                         sizeof(uint64_t) * root_slots + /*seal*/ 8;
  CommitLayout layout;
  layout.record_slot_bytes = AlignUp(payload, 4096);
  layout.redo_slot_bytes = AlignUp(std::max<size_t>(heap_bytes / 32, 256 * 1024), 4096);
  return layout;
}

uint64_t Fnv1a(const uint8_t* data, size_t bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace nvmgc
