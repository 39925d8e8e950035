#include "src/core/header_map.h"

#include <algorithm>
#include <bit>

#include "src/nvm/fault_injector.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {
// CPU cost of a hash + compare step, charged on top of the memory access.
constexpr uint64_t kProbeCpuNs = 2;
}  // namespace

HeaderMap::HeaderMap(size_t capacity_bytes, uint32_t search_bound, MemoryDevice* dram)
    : dram_(dram), search_bound_(search_bound) {
  NVMGC_CHECK(dram != nullptr && dram->kind() == DeviceKind::kDram);
  NVMGC_CHECK(search_bound >= 2);
  size_t entries = capacity_bytes / sizeof(Entry);
  NVMGC_CHECK(entries >= 16);
  AllocateEntries(std::bit_floor(entries));
}

void HeaderMap::AllocateEntries(size_t entries) {
  entries_ = MapZeroedArray<Entry>(entries, 64);
  mask_ = entries - 1;
}

void HeaderMap::ChargeProbe(SimClock* clock, PrefetchQueue* prefetch, Address probe_addr,
                            GcCycleStats* stats) const {
  AccessDescriptor d = RandomRead(probe_addr, sizeof(Entry));
  if (prefetch != nullptr && prefetch->Consume(probe_addr)) {
    d.prefetched = true;
  }
  FaultInjector* injector = dram_->fault_injector();
  if (stats != nullptr && injector != nullptr && injector->AnyFaultActive(clock->now_ns())) {
    ++stats->header_map_fault_probes;
  }
  dram_->Access(clock, d);
  clock->Advance(kProbeCpuNs);
}

void HeaderMap::PrefetchProbe(Address old_addr, PrefetchQueue* prefetch) const {
  if (prefetch == nullptr) {
    return;
  }
  const size_t idx = (IndexFor(old_addr) + 1) & mask_;
  prefetch->Prefetch(reinterpret_cast<Address>(&entries_[idx]));
}

Address HeaderMap::Put(Address old_addr, Address new_addr, SimClock* clock,
                       PrefetchQueue* prefetch, std::vector<uint32_t>* journal,
                       GcCycleStats* stats) {
  NVMGC_DCHECK(old_addr != kNullAddress && new_addr != kNullAddress);
  size_t idx = IndexFor(old_addr);
  uint32_t cnt = 0;
  while (true) {
    ++cnt;
    if (cnt > search_bound_) {
      if (stats != nullptr) ++stats->header_map_overflows;
      return kNullAddress;  // Caller installs into the NVM header.
    }
    idx = (idx + 1) & mask_;
    Entry& entry = entries_[idx];
    ChargeProbe(clock, prefetch, reinterpret_cast<Address>(&entry), stats);
    Address probed_key = Key(entry).load(std::memory_order_acquire);
    if (probed_key != old_addr) {
      if (probed_key != kNullAddress) {
        continue;  // Occupied by another object; keep probing.
      }
      // Free slot: claim it. Never skip an empty slot without CASing — that is
      // what makes concurrent puts for the same key agree on one entry.
      Address expected = kNullAddress;
      if (Key(entry).compare_exchange_strong(expected, old_addr, std::memory_order_acq_rel)) {
        // Won the slot: publish the value.
        Value(entry).store(new_addr, std::memory_order_release);
        dram_->Access(clock, RandomWrite(reinterpret_cast<Address>(&entry), 16));
        if (stats != nullptr) ++stats->header_map_installs;
        if (journal != nullptr) {
          journal->push_back(static_cast<uint32_t>(idx));
        }
        return new_addr;
      }
      // CAS failed: `expected` now holds the occupant's key.
      if (expected == old_addr) {
        // Another thread is installing the same object; wait for its value.
        while (true) {
          const Address value = Value(entry).load(std::memory_order_acquire);
          if (value != kNullAddress) {
            if (stats != nullptr) ++stats->header_map_hits;
            return value;
          }
        }
      }
      continue;  // Occupant is a different object; keep probing.
    }
    // Key already present: another thread is (or finished) installing it.
    while (true) {
      const Address value = Value(entry).load(std::memory_order_acquire);
      if (value != kNullAddress) {
        if (stats != nullptr) ++stats->header_map_hits;
        return value;
      }
    }
  }
}

Address HeaderMap::Get(Address old_addr, SimClock* clock, PrefetchQueue* prefetch,
                       GcCycleStats* stats) const {
  size_t idx = IndexFor(old_addr);
  uint32_t cnt = 0;
  while (true) {
    ++cnt;
    if (cnt > search_bound_) {
      return kNullAddress;  // Definitively absent; caller checks the NVM header.
    }
    idx = (idx + 1) & mask_;
    Entry& entry = entries_[idx];
    ChargeProbe(clock, prefetch, reinterpret_cast<Address>(&entry), stats);
    const Address probed_key = Key(entry).load(std::memory_order_acquire);
    if (probed_key == kNullAddress) {
      return kNullAddress;  // Probe chain ends at the first free slot.
    }
    if (probed_key == old_addr) {
      // Spin for the value if the installer has claimed but not published yet.
      while (true) {
        const Address value = Value(entry).load(std::memory_order_acquire);
        if (value != kNullAddress) {
          if (stats != nullptr) ++stats->header_map_hits;
          return value;
        }
      }
    }
  }
}

void HeaderMap::ClearJournal(std::vector<uint32_t>* journal, SimClock* clock) {
  TraceSpan span(tracer_, clock, "hm.clear", "hm");
  for (const uint32_t idx : *journal) {
    Entry& entry = entries_[idx];
    Key(entry).store(kNullAddress, std::memory_order_relaxed);
    Value(entry).store(kNullAddress, std::memory_order_relaxed);
    dram_->Access(clock, RandomWrite(reinterpret_cast<Address>(&entry), sizeof(Entry)));
  }
  journal->clear();
}

void HeaderMap::ResizeEntries(size_t entries) {
  entries = std::bit_floor(std::max<size_t>(entries, 16));
  if (entries == capacity()) {
    return;
  }
  NVMGC_DCHECK(OccupiedEntries() == 0);  // Between pauses the map is empty.
  AllocateEntries(entries);
}

size_t HeaderMap::OccupiedEntries() const {
  size_t occupied = 0;
  for (size_t i = 0; i <= mask_; ++i) {
    if (Key(entries_[i]).load(std::memory_order_relaxed) != kNullAddress) {
      ++occupied;
    }
  }
  return occupied;
}

}  // namespace nvmgc
