// The durable commit record: the per-pause root of recovery.
//
// At the end of every pause in durability mode, the collector writes a
// snapshot of the post-GC heap shape — region table entries, root offsets,
// and the in-place-update redo log — into a commit area appended to the heap
// arena, with a durable-last protocol (see DESIGN.md §8):
//
//   1. clear the target slot's seal (write 0, flush, fence),
//   2. write + flush + fence the payload (header, region entries, roots),
//   3. write + flush + fence the seal word (kCommitMagic ^ epoch).
//
// The seal is the commit point: a crash before step 3's fence leaves the slot
// torn (seal missing or checksum mismatch) and recovery falls back to the
// other slot. Slots alternate by epoch parity, so the previous commit is
// never overwritten while the next is in flight.
//
// Commit-area layout (HeapConfig::commit_area_bytes, past the regions):
//
//   [record slot A][record slot B][redo slot A][redo slot B]
//
// The redo slots hold the content redo log: for in-place updates to regions
// that were already part of a sealed commit (remset-driven old-region slot
// rewrites, survivor aging), the collector logs (arena offset, 64B content)
// pairs and fences the log *before* the seal, then flushes the in-place lines
// only after the commit point. Recovery replays the chosen epoch's log;
// replay is idempotent.

#ifndef NVMGC_SRC_RECOVERY_COMMIT_RECORD_H_
#define NVMGC_SRC_RECOVERY_COMMIT_RECORD_H_

#include <cstddef>
#include <cstdint>

#include "src/heap/heap.h"

namespace nvmgc {

inline constexpr uint64_t kCommitMagic = 0x4e564d4743434d54ull;  // "NVMGCCMT"
inline constexpr uint64_t kNullRootOffset = ~0ull;

// Fixed-size header at the start of a record slot. All fields little-endian
// host layout (the simulated DIMM is the host's memory).
struct CommitHeader {
  uint64_t magic = 0;
  uint64_t epoch = 0;      // GC epoch this commit describes.
  uint64_t commit_ns = 0;  // Simulated instant the seal fence completed.
  uint64_t region_count = 0;
  uint64_t root_count = 0;
  uint64_t redo_entry_count = 0;
  uint64_t payload_checksum = 0;  // FNV-1a over entries + roots.
  uint64_t redo_checksum = 0;     // FNV-1a over the redo entries.
};

// One committed heap region (index into the heap region table).
struct CommitRegionEntry {
  uint32_t index = 0;
  uint32_t type = 0;  // RegionType as uint32.
  uint64_t used_bytes = 0;
  uint64_t gc_epoch = 0;  // Survivor age bookkeeping.
  uint64_t reserved = 0;
};
static_assert(sizeof(CommitRegionEntry) == 32);

// One content redo entry: 64 bytes of post-update line content at an arena
// offset inside a previously committed region.
struct RedoEntry {
  uint64_t arena_offset = 0;
  uint8_t content[64] = {};
};
static_assert(sizeof(RedoEntry) == 72);

// Byte geometry of the commit area. Offsets are relative to
// Heap::commit_area_base().
struct CommitLayout {
  size_t record_slot_bytes = 0;
  size_t redo_slot_bytes = 0;

  size_t total_bytes() const { return 2 * record_slot_bytes + 2 * redo_slot_bytes; }
  size_t record_offset(uint64_t epoch) const { return (epoch % 2) * record_slot_bytes; }
  size_t redo_offset(uint64_t epoch) const {
    return 2 * record_slot_bytes + (epoch % 2) * redo_slot_bytes;
  }
  // The seal word occupies the record slot's last 8 bytes.
  size_t seal_offset(uint64_t epoch) const {
    return record_offset(epoch) + record_slot_bytes - 8;
  }
};

// Derives the commit-area geometry from the heap shape.
CommitLayout ComputeCommitLayout(const HeapConfig& heap);

uint64_t Fnv1a(const uint8_t* data, size_t bytes);

// Seal value for `epoch` (xor folds the epoch in so a stale seal from slot
// reuse two epochs ago cannot validate a newer torn payload).
inline uint64_t SealValue(uint64_t epoch) { return kCommitMagic ^ epoch; }

}  // namespace nvmgc

#endif  // NVMGC_SRC_RECOVERY_COMMIT_RECORD_H_
