// Value-initialized heap arrays that start on a chosen boundary.
//
// Simulated costs are line-granular (cache lines, prefetch lines, probe
// lines), so which elements share a line must not depend on where the host
// allocator happened to place a buffer.

#ifndef NVMGC_SRC_UTIL_ALIGNED_BUFFER_H_
#define NVMGC_SRC_UTIL_ALIGNED_BUFFER_H_

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <type_traits>

#include "src/util/check.h"

namespace nvmgc {

struct AlignedFree {
  void operator()(void* p) const { std::free(p); }
};

template <typename T>
using AlignedArray = std::unique_ptr<T[], AlignedFree>;

// Allocates `count` value-initialized Ts whose first element sits on an
// `alignment` boundary (a power of two, at least alignof(T)).
template <typename T>
AlignedArray<T> MakeAlignedArray(size_t count, size_t alignment) {
  static_assert(std::is_trivially_destructible_v<T>, "freed without destructor calls");
  NVMGC_CHECK(std::has_single_bit(alignment) && alignment >= alignof(T));
  const size_t bytes = std::max<size_t>(count * sizeof(T), 1);
  void* raw = std::aligned_alloc(alignment, (bytes + alignment - 1) / alignment * alignment);
  NVMGC_CHECK(raw != nullptr);
  T* first = static_cast<T*>(raw);
  std::uninitialized_value_construct_n(first, count);
  return AlignedArray<T>(first);
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_ALIGNED_BUFFER_H_
