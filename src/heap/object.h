// Managed object layout and header operations.
//
// Layout (8-byte aligned, addresses are host pointers into a heap arena):
//
//   offset  0: mark word (uint64)  — age bits, or a forwarding pointer during GC
//   offset  8: klass id (uint32) | padding (uint32)
//   offset 16: payload
//     kRegular:  ref slots (8B each) then primitive payload bytes
//     kRefArray: uint64 length, then `length` ref slots
//     kByteArray:uint64 length, then `length` bytes (padded to 8)
//
// The mark word mirrors HotSpot's use during copying GC: the collector claims
// an object by CAS-installing a forwarding pointer (low bit set). Age bits let
// survivors tenure into the old generation.

#ifndef NVMGC_SRC_HEAP_OBJECT_H_
#define NVMGC_SRC_HEAP_OBJECT_H_

#include <atomic>
#include <cstdint>
#include <cstring>

#include "src/heap/klass.h"
#include "src/util/check.h"

namespace nvmgc {

// A managed heap address. 0 is the null reference.
using Address = uintptr_t;
inline constexpr Address kNullAddress = 0;

namespace obj {

inline constexpr uint64_t kForwardedBit = 0x1;
inline constexpr uint64_t kAgeShift = 1;
inline constexpr uint64_t kAgeMask = 0xFULL << kAgeShift;
// Allocation-site tag (src/obs/alloc_site.h). 16 bits is far above the number
// of distinct sites a workload registers; 0 means "untagged".
inline constexpr uint64_t kSiteShift = 5;
inline constexpr uint64_t kSiteMask = 0xFFFFULL << kSiteShift;

inline constexpr size_t kHeaderBytes = 16;
inline constexpr size_t kMarkOffset = 0;
inline constexpr size_t kKlassOffset = 8;
inline constexpr size_t kArrayLengthOffset = 16;
inline constexpr size_t kArrayElementsOffset = 24;

inline uint64_t* MarkWordPtr(Address a) { return reinterpret_cast<uint64_t*>(a); }

inline uint64_t LoadMark(Address a) {
  return std::atomic_ref<uint64_t>(*MarkWordPtr(a)).load(std::memory_order_acquire);
}

inline void StoreMark(Address a, uint64_t mark) {
  std::atomic_ref<uint64_t>(*MarkWordPtr(a)).store(mark, std::memory_order_release);
}

// Attempts to claim the object for copying by installing `forwardee` as a
// forwarding pointer. On success returns kNullAddress; on failure returns the
// address the object was already forwarded to by another thread.
inline Address CasForward(Address a, Address forwardee) {
  std::atomic_ref<uint64_t> mark(*MarkWordPtr(a));
  uint64_t expected = mark.load(std::memory_order_acquire);
  while (true) {
    if ((expected & kForwardedBit) != 0) {
      return static_cast<Address>(expected & ~kForwardedBit);
    }
    const uint64_t desired = static_cast<uint64_t>(forwardee) | kForwardedBit;
    if (mark.compare_exchange_weak(expected, desired, std::memory_order_acq_rel)) {
      return kNullAddress;
    }
  }
}

inline bool IsForwarded(uint64_t mark) { return (mark & kForwardedBit) != 0; }
inline Address ForwardeeOf(uint64_t mark) { return static_cast<Address>(mark & ~kForwardedBit); }

inline uint32_t AgeOf(uint64_t mark) { return static_cast<uint32_t>((mark & kAgeMask) >> kAgeShift); }
inline uint32_t SiteOf(uint64_t mark) {
  return static_cast<uint32_t>((mark & kSiteMask) >> kSiteShift);
}
inline uint64_t MarkWithAgeSite(uint32_t age, uint32_t site) {
  return ((static_cast<uint64_t>(age) << kAgeShift) & kAgeMask) |
         ((static_cast<uint64_t>(site) << kSiteShift) & kSiteMask);
}
inline uint64_t MarkWithAge(uint32_t age) { return MarkWithAgeSite(age, 0); }

inline KlassId KlassIdOf(Address a) {
  return *reinterpret_cast<const uint32_t*>(a + kKlassOffset);
}

inline void StoreKlassId(Address a, KlassId id) {
  *reinterpret_cast<uint32_t*>(a + kKlassOffset) = id;
}

inline uint64_t ArrayLength(Address a) {
  return *reinterpret_cast<const uint64_t*>(a + kArrayLengthOffset);
}

inline void StoreArrayLength(Address a, uint64_t length) {
  *reinterpret_cast<uint64_t*>(a + kArrayLengthOffset) = length;
}

inline size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

// Total object size in bytes given its klass (and, for arrays, its length).
inline size_t SizeOf(const Klass& klass, uint64_t array_length) {
  switch (klass.kind) {
    case KlassKind::kRegular:
      return kHeaderBytes + size_t{8} * klass.ref_fields + AlignUp8(klass.payload_bytes);
    case KlassKind::kRefArray:
      return kArrayElementsOffset + size_t{8} * array_length;
    case KlassKind::kByteArray:
      return kArrayElementsOffset + AlignUp8(array_length);
  }
  CheckFailed(__FILE__, __LINE__, "false", "unknown klass kind");
}

// Size of an allocated object read back from the heap.
inline size_t SizeOfAt(Address a, const KlassTable& klasses) {
  const Klass& k = klasses.Get(KlassIdOf(a));
  const uint64_t len = k.kind == KlassKind::kRegular ? 0 : ArrayLength(a);
  return SizeOf(k, len);
}

// Address of the i-th reference slot.
inline Address RefSlot(Address a, const Klass& klass, size_t i) {
  if (klass.kind == KlassKind::kRegular) {
    NVMGC_DCHECK(i < klass.ref_fields);
    return a + kHeaderBytes + 8 * i;
  }
  NVMGC_DCHECK(klass.kind == KlassKind::kRefArray);
  NVMGC_DCHECK(i < ArrayLength(a));
  return a + kArrayElementsOffset + 8 * i;
}

// Number of reference slots in the object at `a`.
inline size_t RefSlotCount(Address a, const Klass& klass) {
  switch (klass.kind) {
    case KlassKind::kRegular:
      return klass.ref_fields;
    case KlassKind::kRefArray:
      return ArrayLength(a);
    case KlassKind::kByteArray:
      return 0;
  }
  CheckFailed(__FILE__, __LINE__, "false", "unknown klass kind");
}

inline Address LoadRef(Address slot) {
  return std::atomic_ref<Address>(*reinterpret_cast<Address*>(slot))
      .load(std::memory_order_relaxed);
}

inline void StoreRef(Address slot, Address value) {
  std::atomic_ref<Address>(*reinterpret_cast<Address*>(slot))
      .store(value, std::memory_order_relaxed);
}

// Address of the primitive payload of a regular object.
inline Address PayloadOf(Address a, const Klass& klass) {
  NVMGC_DCHECK(klass.kind == KlassKind::kRegular);
  return a + kHeaderBytes + size_t{8} * klass.ref_fields;
}

// Initializes header + klass (and array length) of a freshly allocated object
// and zeroes its reference slots. `site` is the allocation-site tag carried in
// the spare mark bits (0 = untagged).
inline void InitializeObject(Address a, const Klass& klass, uint64_t array_length,
                             uint32_t site = 0) {
  StoreMark(a, MarkWithAgeSite(0, site));
  StoreKlassId(a, klass.id);
  switch (klass.kind) {
    case KlassKind::kRegular:
      std::memset(reinterpret_cast<void*>(a + kHeaderBytes), 0, size_t{8} * klass.ref_fields);
      break;
    case KlassKind::kRefArray:
      StoreArrayLength(a, array_length);
      std::memset(reinterpret_cast<void*>(a + kArrayElementsOffset), 0, size_t{8} * array_length);
      break;
    case KlassKind::kByteArray:
      StoreArrayLength(a, array_length);
      break;
  }
}

}  // namespace obj
}  // namespace nvmgc

#endif  // NVMGC_SRC_HEAP_OBJECT_H_
