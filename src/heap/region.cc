#include "src/heap/region.h"

namespace nvmgc {

const char* RegionTypeName(RegionType type) {
  switch (type) {
    case RegionType::kFree:
      return "free";
    case RegionType::kEden:
      return "eden";
    case RegionType::kSurvivor:
      return "survivor";
    case RegionType::kOld:
      return "old";
    case RegionType::kHumongous:
      return "humongous";
    case RegionType::kWriteCache:
      return "write-cache";
    case RegionType::kLarge:
      return "large";
  }
  return "?";
}

void Region::Initialize(uint32_t index, Address bottom, size_t bytes, DeviceKind device) {
  index_ = index;
  bottom_ = bottom;
  end_ = bottom + bytes;
  top_ = bottom;
  type_ = RegionType::kFree;
  device_ = device;
}

void Region::ResetForType(RegionType type) {
  type_ = type;
  top_ = bottom_;
  gc_epoch_ = 0;
  in_cset_ = false;
  remset_.Clear();
  cache_twin_.store(nullptr, std::memory_order_relaxed);
  flush_ready_.store(false, std::memory_order_relaxed);
  steal_tainted_.store(false, std::memory_order_relaxed);
  flushed_.store(false, std::memory_order_relaxed);
  pending_slots_.store(0, std::memory_order_relaxed);
  closed_.store(false, std::memory_order_relaxed);
  durable_committed_ = false;
}

}  // namespace nvmgc
