// Header map: a global lock-free closed-hashing table that keeps forwarding
// pointers in DRAM so object headers on NVM are never rewritten (Section 3.3
// and Algorithm 1 of the paper).
//
// Entries are (old address -> new address). A put claims the key slot with a
// CAS within a bounded probe window; losers either wait for the winner's value
// (same key) or keep probing (different key). When the window is exhausted the
// caller falls back to installing the forwarding pointer in the object's NVM
// header. Contents are only meaningful during a pause and are cleared in
// parallel at GC end.

#ifndef NVMGC_SRC_CORE_HEADER_MAP_H_
#define NVMGC_SRC_CORE_HEADER_MAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/gc/gc_stats.h"
#include "src/heap/object.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/prefetch_queue.h"
#include "src/nvm/sim_clock.h"
#include "src/util/mapped_array.h"

namespace nvmgc {

class GcTracer;

class HeaderMap {
 public:
  // `capacity_bytes` is rounded down to a power-of-two entry count (16 B per
  // entry). `dram` is the device charged for probe traffic.
  HeaderMap(size_t capacity_bytes, uint32_t search_bound, MemoryDevice* dram);

  // Algorithm 1 PUT. Returns:
  //   * new_addr            — this thread won the installation;
  //   * another address     — another thread already forwarded the object;
  //   * kNullAddress        — probe window exhausted (caller must fall back to
  //                           the NVM header).
  // When `journal` is non-null, the index of a won entry is recorded so the
  // end-of-pause clear touches only occupied entries (see ClearJournal).
  // When `stats` is non-null, the call counts into the caller's cycle: an
  // install, an overflow or a hit, plus every probe charged under an active
  // DRAM fault (header_map_fault_probes).
  Address Put(Address old_addr, Address new_addr, SimClock* clock, PrefetchQueue* prefetch,
              std::vector<uint32_t>* journal = nullptr, GcCycleStats* stats = nullptr);

  // Algorithm 1 GET. Returns the forwarding pointer or kNullAddress if absent
  // from the map (caller must then consult the NVM header). Counts hits and
  // faulted probes into `stats` when it is non-null.
  Address Get(Address old_addr, SimClock* clock, PrefetchQueue* prefetch,
              GcCycleStats* stats = nullptr) const;

  // Issues a software prefetch for the probe line of `old_addr` (used when a
  // reference is pushed, Section 4.3 "extend the original prefetching
  // instructions to consider the random read operations on the header map").
  void PrefetchProbe(Address old_addr, PrefetchQueue* prefetch) const;

  // Clears exactly the entries this worker installed during the pause (its
  // journal from Put) and empties the journal. Equivalent to the paper's
  // all-threads parallel clean-up, but the cost scales with occupancy instead
  // of capacity — which is what makes the clean-up "trivial compared with the
  // GC pauses" at any map size.
  void ClearJournal(std::vector<uint32_t>* journal, SimClock* clock);

  // Hashes keys by their offset from `origin` instead of by host address, so
  // which keys collide, and so every probe count and probe cost, does not
  // depend on where the host placed the heap. The collector passes
  // Heap::heap_base(), the origin of both the NVM arena and the DRAM arena
  // (young regions in generational and eden-on-DRAM runs).
  void set_key_origin(Address origin) { key_origin_ = origin; }

  size_t capacity() const { return mask_ + 1; }
  // The entry table's host bytes (capacity() * 16, ending at a guard page),
  // for host-footprint checks. Valid until the next ResizeEntries.
  std::span<const std::byte> table_bytes() const {
    return {reinterpret_cast<const std::byte*>(entries_.get()), capacity() * sizeof(Entry)};
  }
  size_t OccupiedEntries() const;

  // Replaces the table with one of `entries` slots (rounded down to a power of
  // two, floor 16). Only legal between pauses: the map is empty then — every
  // install is journaled and cleared at pause end — so no live forwarding
  // pointer can be dropped. Used by the adaptive policy engine.
  void ResizeEntries(size_t entries);

  // Observability: when a tracer is attached, each worker's end-of-pause
  // journal clear emits an "hm.clear" span. The tracer must outlive the map.
  void set_tracer(GcTracer* tracer) { tracer_ = tracer; }

 private:
  // Two plain words, so a freshly mapped zero page is a table of empty
  // entries (kNullAddress is 0) with no constructor pass; every access goes
  // through std::atomic_ref.
  struct Entry {
    Address key;
    Address value;
  };
  static_assert(kNullAddress == 0, "zero pages must read as empty entries");
  static_assert(alignof(Address) >= std::atomic_ref<Address>::required_alignment);

  static std::atomic_ref<Address> Key(Entry& entry) {
    return std::atomic_ref<Address>(entry.key);
  }
  static std::atomic_ref<Address> Value(Entry& entry) {
    return std::atomic_ref<Address>(entry.value);
  }

  size_t IndexFor(Address old_addr) const {
    // Fibonacci hashing over the 8-byte-aligned offset from the key origin.
    const uint64_t key = old_addr - key_origin_;
    return static_cast<size_t>((key >> 3) * 0x9e3779b97f4a7c15ULL >> 32) & mask_;
  }

  void ChargeProbe(SimClock* clock, PrefetchQueue* prefetch, Address probe_addr,
                   GcCycleStats* stats) const;

  // Maps `entries` empty slots starting on a cache line (the table's byte
  // size is a multiple of 64), so which entries share a probe line does not
  // depend on host placement. Untouched slots cost no host memory.
  void AllocateEntries(size_t entries);

  MemoryDevice* dram_;
  GcTracer* tracer_ = nullptr;
  uint32_t search_bound_;
  size_t mask_;
  MappedArray<Entry> entries_;
  Address key_origin_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_CORE_HEADER_MAP_H_
