#include "src/core/header_map.h"

#include <algorithm>
#include <bit>

#include "src/nvm/fault_injector.h"
#include "src/obs/metrics.h"
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

void HeaderMap::ChargeProbe(SimClock* clock, PrefetchQueue* prefetch,
                            Address probe_addr) const {
  AccessDescriptor d = RandomRead(probe_addr, sizeof(Entry));
  if (prefetch != nullptr && prefetch->Consume(probe_addr)) {
    d.prefetched = true;
  }
  FaultInjector* injector = dram_->fault_injector();
  if (injector != nullptr && injector->AnyFaultActive(clock->now_ns())) {
    fault_probes_.fetch_add(1, std::memory_order_relaxed);
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
                       PrefetchQueue* prefetch, std::vector<uint32_t>* journal) {
  NVMGC_DCHECK(old_addr != kNullAddress && new_addr != kNullAddress);
  size_t idx = IndexFor(old_addr);
  uint32_t cnt = 0;
  while (true) {
    ++cnt;
    if (cnt > search_bound_) {
      overflows_.fetch_add(1, std::memory_order_relaxed);
      return kNullAddress;  // Caller installs into the NVM header.
    }
    idx = (idx + 1) & mask_;
    Entry& entry = entries_[idx];
    ChargeProbe(clock, prefetch, reinterpret_cast<Address>(&entry));
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
        installs_.fetch_add(1, std::memory_order_relaxed);
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
            hits_.fetch_add(1, std::memory_order_relaxed);
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
        hits_.fetch_add(1, std::memory_order_relaxed);
        return value;
      }
    }
  }
}

Address HeaderMap::Get(Address old_addr, SimClock* clock, PrefetchQueue* prefetch) const {
  size_t idx = IndexFor(old_addr);
  uint32_t cnt = 0;
  while (true) {
    ++cnt;
    if (cnt > search_bound_) {
      return kNullAddress;  // Definitively absent; caller checks the NVM header.
    }
    idx = (idx + 1) & mask_;
    Entry& entry = entries_[idx];
    ChargeProbe(clock, prefetch, reinterpret_cast<Address>(&entry));
    const Address probed_key = Key(entry).load(std::memory_order_acquire);
    if (probed_key == kNullAddress) {
      return kNullAddress;  // Probe chain ends at the first free slot.
    }
    if (probed_key == old_addr) {
      // Spin for the value if the installer has claimed but not published yet.
      while (true) {
        const Address value = Value(entry).load(std::memory_order_acquire);
        if (value != kNullAddress) {
          hits_.fetch_add(1, std::memory_order_relaxed);
          return value;
        }
      }
    }
  }
}

void HeaderMap::ClearStripe(uint32_t worker, uint32_t total_workers, SimClock* clock) {
  const size_t entries = capacity();
  const size_t per = (entries + total_workers - 1) / total_workers;
  const size_t begin = std::min(entries, per * worker);
  const size_t end = std::min(entries, begin + per);
  for (size_t i = begin; i < end; ++i) {
    Key(entries_[i]).store(kNullAddress, std::memory_order_relaxed);
    Value(entries_[i]).store(kNullAddress, std::memory_order_relaxed);
  }
  if (end > begin) {
    dram_->Access(clock, SequentialWrite(reinterpret_cast<Address>(&entries_[begin]),
                                         static_cast<uint32_t>((end - begin) * sizeof(Entry))));
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

void HeaderMap::ExportMetrics(MetricsRegistry* metrics) const {
  metrics->SetGauge("hm.capacity_entries", capacity());
  metrics->SetGauge("hm.lifetime.installs", installs());
  metrics->SetGauge("hm.lifetime.overflows", overflows());
  metrics->SetGauge("hm.lifetime.hits", hits());
  metrics->SetGauge("hm.lifetime.fault_probes", fault_probes());
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
