// Heap regions: the basic memory-management unit (as in G1).
//
// A region is a fixed-size, bump-allocated slab. Eden regions serve mutator
// TLABs; survivor/old regions are GC evacuation targets; write-cache regions
// live in the DRAM arena and act as DRAM twins of NVM survivor regions during
// a pause. The flush-tracking fields implement the paper's Figure 4 readiness
// protocol for asynchronous region flushing.

#ifndef NVMGC_SRC_HEAP_REGION_H_
#define NVMGC_SRC_HEAP_REGION_H_

#include <atomic>
#include <cstdint>

#include "src/heap/object.h"
#include "src/heap/remembered_set.h"
#include "src/nvm/device_profile.h"

namespace nvmgc {

enum class RegionType : uint8_t {
  kFree,
  kEden,
  kSurvivor,
  kOld,
  kHumongous,   // Single over-sized object; never evacuated.
  kWriteCache,  // DRAM staging twin of an NVM survivor/old region.
  kLarge,       // Large-object space: NVM-resident, tenured in place, never copied.
};

const char* RegionTypeName(RegionType type);

class Region {
 public:
  Region() = default;

  void Initialize(uint32_t index, Address bottom, size_t bytes, DeviceKind device);

  // Bump allocation. Only the owning thread allocates into a region, so this
  // needs no atomics; ownership hand-off happens through the region manager's
  // lock.
  Address Allocate(size_t bytes) {
    const Address result = top_;
    if (result + bytes > end_) {
      return kNullAddress;
    }
    top_ = result + bytes;
    return result;
  }

  // Prepares the region for (re)use as `type`.
  void ResetForType(RegionType type);

  bool Contains(Address a) const { return a >= bottom_ && a < end_; }

  uint32_t index() const { return index_; }
  Address bottom() const { return bottom_; }
  Address end() const { return end_; }
  Address top() const { return top_; }
  void set_top(Address top) { top_ = top; }
  size_t capacity() const { return end_ - bottom_; }
  size_t used() const { return top_ - bottom_; }
  size_t free_bytes() const { return end_ - top_; }
  RegionType type() const { return type_; }
  DeviceKind device() const { return device_; }

  bool is_young() const { return type_ == RegionType::kEden || type_ == RegionType::kSurvivor; }
  bool is_old_like() const {
    return type_ == RegionType::kOld || type_ == RegionType::kHumongous ||
           type_ == RegionType::kLarge;
  }

  RememberedSet& remset() { return remset_; }
  const RememberedSet& remset() const { return remset_; }

  // Survivor-region age bookkeeping: survivor regions created during GC cycle
  // N are part of the collection set of cycle N+1.
  uint64_t gc_epoch() const { return gc_epoch_; }
  void set_gc_epoch(uint64_t e) { gc_epoch_ = e; }

  // Collection-set membership, set during STW setup (no concurrency).
  bool in_cset() const { return in_cset_; }
  void set_in_cset(bool in) { in_cset_ = in; }

  // --- Write-cache pairing (used only while a GC pause is active) ---
  Region* cache_twin() const { return cache_twin_.load(std::memory_order_acquire); }
  void set_cache_twin(Region* twin) { cache_twin_.store(twin, std::memory_order_release); }

  // --- Asynchronous-flush tracking (paper Figure 4) ---
  // One-shot claim of the flush; returns true for exactly one caller.
  bool ClaimFlush() { return !flush_ready_.exchange(true, std::memory_order_acq_rel); }
  // Work stealing breaks the LIFO order; a tainted region falls back to the
  // synchronous end-of-GC flush.
  bool steal_tainted() const { return steal_tainted_.load(std::memory_order_acquire); }
  void set_steal_tainted(bool tainted) { steal_tainted_.store(tainted, std::memory_order_release); }
  bool flushed() const { return flushed_.load(std::memory_order_acquire); }
  void set_flushed(bool flushed) { flushed_.store(flushed, std::memory_order_release); }

  // Outstanding reference slots inside this region still sitting in some
  // working stack. Zero (with the region closed to new objects) means every
  // reference the region contains has been processed — the exact moment the
  // paper's Figure 4 LIFO trick detects under depth-first processing.
  void AddPendingSlots(int64_t n) { pending_slots_.fetch_add(n, std::memory_order_acq_rel); }
  int64_t pending_slots() const { return pending_slots_.load(std::memory_order_acquire); }
  bool closed() const { return closed_.load(std::memory_order_acquire); }
  void set_closed(bool closed) { closed_.store(closed, std::memory_order_release); }

  // --- Durability (set/read only by the control thread at pause end) ---
  // True once this region's content was part of a sealed commit record. Such
  // a region must not be reused until the *next* commit seals (the Heap
  // quarantines it on free), and in-place rewrites of it go through the redo
  // log before the commit point (see DESIGN.md §8).
  bool durable_committed() const { return durable_committed_; }
  void set_durable_committed(bool committed) { durable_committed_ = committed; }

 private:
  uint32_t index_ = 0;
  Address bottom_ = 0;
  Address end_ = 0;
  Address top_ = 0;
  RegionType type_ = RegionType::kFree;
  DeviceKind device_ = DeviceKind::kDram;
  uint64_t gc_epoch_ = 0;
  bool in_cset_ = false;
  RememberedSet remset_;

  std::atomic<Region*> cache_twin_{nullptr};
  std::atomic<bool> flush_ready_{false};
  std::atomic<bool> steal_tainted_{false};
  std::atomic<bool> flushed_{false};
  std::atomic<int64_t> pending_slots_{0};
  std::atomic<bool> closed_{false};
  bool durable_committed_ = false;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_HEAP_REGION_H_
