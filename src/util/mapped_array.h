// Zero-filled host arrays backed by private anonymous page mappings.
//
// The kernel supplies each page of such a mapping already zeroed the first
// time it is touched, so a buffer costs host memory (and setup time) only for
// the pages a run actually uses: a Vm reserving a multi-GB heap pays for the
// regions it allocates into, not for the reservation. An element type must
// therefore be valid as all-zero bytes with no constructor pass (any such pass
// would touch every page again): trivially copyable and trivially
// destructible, with its zero state as its initial state.
//
// Simulated costs are line-granular (cache lines, prefetch lines, probe
// lines), so which elements share a line must not depend on where the host
// placed a buffer. The array is placed so that it ends exactly where a
// PROT_NONE guard page begins, with its first element rounded down to the
// requested alignment: a buffer whose byte size is a multiple of that
// alignment (every caller's) starts aligned and ends at the guard, so a write
// one byte past its end faults in every build, sanitized or not.

#ifndef NVMGC_SRC_UTIL_MAPPED_ARRAY_H_
#define NVMGC_SRC_UTIL_MAPPED_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>

namespace nvmgc {

// Unmaps the whole mapping (data pages plus guard page) an array lives in.
struct PageUnmapper {
  void* mapping = nullptr;
  size_t mapping_bytes = 0;
  void operator()(void* first) const;
};

template <typename T>
using MappedArray = std::unique_ptr<T[], PageUnmapper>;

// Maps `bytes` zero-filled bytes followed by a guard page; returns the first
// byte (rounded down from guard - bytes to `alignment`, a power of two no
// larger than a page) and fills `unmapper` with what frees the mapping.
void* MapZeroedBytes(size_t bytes, size_t alignment, PageUnmapper* unmapper);

// Maps `count` zero-filled Ts whose first element sits on an `alignment`
// boundary (a power of two, at least alignof(T), at most a page) whenever
// count * sizeof(T) is a multiple of `alignment`.
template <typename T>
MappedArray<T> MapZeroedArray(size_t count, size_t alignment) {
  static_assert(std::is_trivially_copyable_v<T>, "zero pages must be valid Ts as they are");
  static_assert(std::is_trivially_destructible_v<T>, "unmapped without destructor calls");
  PageUnmapper unmapper;
  void* first = MapZeroedBytes(count * sizeof(T), std::max(alignment, alignof(T)), &unmapper);
  return MappedArray<T>(static_cast<T*>(first), unmapper);
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_MAPPED_ARRAY_H_
