#include "src/util/mapped_array.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/util/check.h"

namespace nvmgc {

void PageUnmapper::operator()(void* /*first*/) const {
  NVMGC_CHECK(munmap(mapping, mapping_bytes) == 0);
}

void* MapZeroedBytes(size_t bytes, size_t alignment, PageUnmapper* unmapper) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  NVMGC_CHECK(std::has_single_bit(alignment) && alignment <= page);
  const size_t data_bytes = (std::max<size_t>(bytes, 1) + page - 1) / page * page;
  const size_t mapping_bytes = data_bytes + page;
  void* mapping =
      mmap(nullptr, mapping_bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NVMGC_CHECK_MSG(mapping != MAP_FAILED, "mmap of a zero-filled host buffer failed");
  const uintptr_t guard = reinterpret_cast<uintptr_t>(mapping) + data_bytes;
  NVMGC_CHECK(mprotect(reinterpret_cast<void*>(guard), page, PROT_NONE) == 0);
  *unmapper = PageUnmapper{mapping, mapping_bytes};
  return reinterpret_cast<void*>((guard - bytes) & ~(alignment - 1));
}

}  // namespace nvmgc
