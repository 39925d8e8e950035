#include "src/nvm/bandwidth_ledger.h"

namespace nvmgc {

BandwidthLedger::BandwidthLedger(uint64_t bucket_ns) : bucket_ns_(bucket_ns) {}

void BandwidthLedger::TenantCounts::Add(const DeviceCounters& c) {
  SingleWriterAdd(&read_bytes, c.read_bytes);
  SingleWriterAdd(&write_bytes, c.write_bytes);
  SingleWriterAdd(&nt_write_bytes, c.nt_write_bytes);
  SingleWriterAdd(&read_ops, c.read_ops);
  SingleWriterAdd(&write_ops, c.write_ops);
}

DeviceCounters BandwidthLedger::TenantCounts::Load() const {
  return DeviceCounters{read_bytes.load(std::memory_order_relaxed),
                        write_bytes.load(std::memory_order_relaxed),
                        nt_write_bytes.load(std::memory_order_relaxed),
                        read_ops.load(std::memory_order_relaxed),
                        write_ops.load(std::memory_order_relaxed)};
}

void BandwidthLedger::TenantCounts::Clear() {
  read_bytes.store(0, std::memory_order_relaxed);
  write_bytes.store(0, std::memory_order_relaxed);
  nt_write_bytes.store(0, std::memory_order_relaxed);
  read_ops.store(0, std::memory_order_relaxed);
  write_ops.store(0, std::memory_order_relaxed);
}

void BandwidthLedger::WindowCounts::Clear() {
  read_bytes.store(0, std::memory_order_relaxed);
  write_bytes.store(0, std::memory_order_relaxed);
  nt_bytes.store(0, std::memory_order_relaxed);
  for (auto& t : tenant_bytes) {
    t.store(0, std::memory_order_relaxed);
  }
  active_tenants.store(0, std::memory_order_relaxed);
}

void BandwidthLedger::Recycle(Bucket* b, uint64_t epoch) {
  const uint64_t old = b->epoch.load(std::memory_order_relaxed);
  // If the running window counts the bytes being dropped, rebuild it at the
  // next sample.
  if (InWindow(old)) {
    window_epoch_.store(kNoEpoch, std::memory_order_relaxed);
  }
  // Settle the old epoch. A lagging clock can recycle a newer epoch's slot
  // and that epoch can later return; both halves settle, so totals and the
  // series stay exact.
  DeviceCounters epoch_total;
  for (uint32_t t = 0; t < kMaxTenants; ++t) {
    const DeviceCounters c = b->tenants[t].Load();
    settled_[t].Add(c);
    epoch_total += c;
    b->tenants[t].Clear();
  }
  if (recording_ && old != kNoEpoch) {
    if (series_.size() <= old) {
      series_.resize(old + 1);
    }
    series_[old] += epoch_total;
  }
  b->epoch.store(epoch, std::memory_order_relaxed);
}

void BandwidthLedger::RebuildWindow(uint64_t epoch) const {
  window_.Clear();
  for (uint64_t i = 0; i < kWindowBuckets && i <= epoch; ++i) {
    const Bucket& b = ring_[(epoch - i) % kRingSize];
    if (b.epoch.load(std::memory_order_relaxed) != epoch - i) {
      continue;
    }
    for (uint32_t t = 0; t < kMaxTenants; ++t) {
      const DeviceCounters c = b.tenants[t].Load();
      SingleWriterAdd(&window_.read_bytes, c.read_bytes);
      SingleWriterAdd(&window_.write_bytes, c.write_bytes);
      SingleWriterAdd(&window_.nt_bytes, c.nt_write_bytes);
      SingleWriterAdd(&window_.tenant_bytes[t], c.total_bytes());
    }
  }
  uint32_t active = 0;
  for (const auto& t : window_.tenant_bytes) {
    active += t.load(std::memory_order_relaxed) > 0 ? 1 : 0;
  }
  window_.active_tenants.store(active, std::memory_order_relaxed);
  window_epoch_.store(epoch, std::memory_order_relaxed);
}

BandwidthLedger::TenantOccupancy BandwidthLedger::OccupancyAt(uint64_t epoch,
                                                              uint8_t tenant) const {
  SyncWindow(epoch);
  TenantOccupancy occ;
  // Every charged byte lands in exactly one tenant slot, so the tenant bytes
  // sum to the window's read + write bytes.
  occ.total_bytes = window_.read_bytes.load(std::memory_order_relaxed) +
                    window_.write_bytes.load(std::memory_order_relaxed);
  occ.own_bytes = window_.tenant_bytes[tenant % kMaxTenants].load(std::memory_order_relaxed);
  occ.active_tenants = window_.active_tenants.load(std::memory_order_relaxed);
  if (occ.own_bytes == 0) {
    // The sampling tenant is about to issue traffic: it is active even when
    // its window history is empty.
    ++occ.active_tenants;
  }
  return occ;
}

bool BandwidthLedger::ReadBucket(uint64_t epoch, DeviceCounters* out) const {
  const Bucket& b = ring_[epoch % kRingSize];
  if (b.epoch.load(std::memory_order_relaxed) != epoch) {
    return false;
  }
  *out = DeviceCounters{};
  for (const TenantCounts& t : b.tenants) {
    *out += t.Load();
  }
  return true;
}

DeviceCounters BandwidthLedger::TenantTotals(uint8_t tenant) const {
  const uint32_t t = tenant % kMaxTenants;
  DeviceCounters c = settled_[t].Load();
  // A slot that holds no epoch was never charged, so it reads as zero.
  for (const Bucket& b : ring_) {
    c += b.tenants[t].Load();
  }
  return c;
}

std::vector<DeviceCounters> BandwidthLedger::RecordedSeries() const {
  if (!recording_) {
    return {};
  }
  std::vector<DeviceCounters> series = series_;
  for (const Bucket& b : ring_) {
    const uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
    if (epoch == kNoEpoch) {
      continue;
    }
    if (series.size() <= epoch) {
      series.resize(epoch + 1);
    }
    for (const TenantCounts& t : b.tenants) {
      series[epoch] += t.Load();
    }
  }
  return series;
}

}  // namespace nvmgc
