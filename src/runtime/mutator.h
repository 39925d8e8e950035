// Mutator: the application-facing allocation and access API.
//
// Allocation is TLAB-style bump allocation in eden regions; exhaustion of the
// eden quota triggers a young GC. Reference writes go through the old->young
// write barrier that feeds the remembered sets. All operations charge
// simulated time on the owning VM's shared application clock.

#ifndef NVMGC_SRC_RUNTIME_MUTATOR_H_
#define NVMGC_SRC_RUNTIME_MUTATOR_H_

#include "src/heap/heap.h"
#include "src/heap/object.h"

namespace nvmgc {

class Vm;

// The one argument every allocation entry point takes. `klass` selects the
// shape (regular / ref-array / byte-array); `array_length` is ignored for
// regular klasses. `large_object` hints that the allocation belongs in the
// large-object space even below the size threshold — meaningful only on a
// generational heap, ignored elsewhere. Size-based routing (humongous, and
// the generational large-object threshold of region_bytes/8) applies
// regardless of the hint.
// `site` is an allocation-site tag from Vm::RegisterAllocSite (0 = untagged);
// it is carried in the object's spare mark bits and drives the per-site
// lifetime/tenuring/write-amplification demographics (src/obs/alloc_site.h).
struct AllocRequest {
  KlassId klass = 0;
  uint64_t array_length = 0;
  bool large_object = false;
  uint32_t site = 0;
};

class Mutator {
 public:
  explicit Mutator(Vm* vm) : vm_(vm) {}

  // --- Allocation (may trigger GC; returned address is the new object) ---
  // The generation-aware entry point: routes to the TLAB (eden), the
  // large-object space (generational heaps, at the configured threshold or on
  // request), or a humongous region (above region_bytes / 2).
  Address Allocate(const AllocRequest& request);

  // --- Field access (charged; WriteRef applies the write barrier) ---
  void WriteRef(Address object, size_t slot_index, Address value);
  Address ReadRef(Address object, size_t slot_index);
  // Touches `bytes` of the object's primitive payload (capped at its size).
  void ReadPayload(Address object, uint32_t bytes);
  void WritePayload(Address object, uint32_t bytes);

  // Called by the VM after every pause: eden regions were reclaimed, so the
  // current TLAB is stale.
  void ResetTlab() { tlab_ = nullptr; }

 private:
  Address AllocateSmall(const Klass& klass, uint64_t array_length, size_t size, uint32_t site);
  Address AllocateHumongous(const Klass& klass, uint64_t array_length, size_t size,
                            uint32_t site);
  Address AllocateLargeObject(const Klass& klass, uint64_t array_length, size_t size,
                              uint32_t site);
  Address Initialize(Address addr, const Klass& klass, uint64_t array_length, size_t size,
                     uint32_t site);

  Vm* vm_;
  Region* tlab_ = nullptr;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_RUNTIME_MUTATOR_H_
