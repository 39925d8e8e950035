#include "src/nvm/bandwidth_ledger.h"

namespace nvmgc {

BandwidthLedger::BandwidthLedger(uint64_t bucket_ns) : bucket_ns_(bucket_ns) {}

void BandwidthLedger::Counts::Clear() {
  read_bytes.store(0, std::memory_order_relaxed);
  write_bytes.store(0, std::memory_order_relaxed);
  nt_bytes.store(0, std::memory_order_relaxed);
  for (auto& t : tenant_bytes) {
    t.store(0, std::memory_order_relaxed);
  }
  active_tenants.store(0, std::memory_order_relaxed);
}

void BandwidthLedger::Recycle(Bucket* b, uint64_t epoch) {
  // If the running window counts the bytes being dropped, rebuild it at the
  // next sample.
  if (InWindow(b->epoch.load(std::memory_order_relaxed))) {
    window_epoch_.store(kNoEpoch, std::memory_order_relaxed);
  }
  b->Clear();
  b->epoch.store(epoch, std::memory_order_relaxed);
}

void BandwidthLedger::RebuildWindow(uint64_t epoch) const {
  window_.Clear();
  for (uint64_t i = 0; i < kWindowBuckets && i <= epoch; ++i) {
    const Bucket& b = ring_[(epoch - i) % kRingSize];
    if (b.epoch.load(std::memory_order_relaxed) != epoch - i) {
      continue;
    }
    SingleWriterAdd(&window_.read_bytes, b.read_bytes.load(std::memory_order_relaxed));
    SingleWriterAdd(&window_.write_bytes, b.write_bytes.load(std::memory_order_relaxed));
    SingleWriterAdd(&window_.nt_bytes, b.nt_bytes.load(std::memory_order_relaxed));
    for (uint32_t t = 0; t < kMaxTenants; ++t) {
      SingleWriterAdd(&window_.tenant_bytes[t], b.tenant_bytes[t].load(std::memory_order_relaxed));
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

bool BandwidthLedger::ReadBucket(uint64_t epoch, BucketSample* out) const {
  const Bucket& b = ring_[epoch % kRingSize];
  if (b.epoch.load(std::memory_order_relaxed) != epoch) {
    return false;
  }
  out->read_bytes = b.read_bytes.load(std::memory_order_relaxed);
  out->write_bytes = b.write_bytes.load(std::memory_order_relaxed);
  out->nt_bytes = b.nt_bytes.load(std::memory_order_relaxed);
  return true;
}

BandwidthRecorder::BandwidthRecorder(uint64_t bucket_ns, size_t max_buckets)
    : bucket_ns_(bucket_ns), cells_(max_buckets) {}

void BandwidthRecorder::Start(uint64_t now_ns) {
  start_ns_ = now_ns;
  for (auto& cell : cells_) {
    cell.read_bytes.store(0, std::memory_order_relaxed);
    cell.write_bytes.store(0, std::memory_order_relaxed);
  }
}

void BandwidthRecorder::Charge(uint64_t now_ns, const AccessDescriptor& d) {
  if (now_ns < start_ns_) {
    return;
  }
  const uint64_t idx = (now_ns - start_ns_) / bucket_ns_;
  if (idx >= cells_.size()) {
    return;  // Past the recording horizon; drop.
  }
  if (d.op == AccessOp::kRead) {
    SingleWriterAdd(&cells_[idx].read_bytes, d.bytes);
  } else {
    SingleWriterAdd(&cells_[idx].write_bytes, d.bytes);
  }
}

std::vector<BandwidthSample> BandwidthRecorder::Series() const {
  std::vector<BandwidthSample> out;
  // MB/s = bytes / bucket_seconds / 1e6.
  const double to_mbps = 1e9 / static_cast<double>(bucket_ns_) / 1e6;
  size_t last_nonzero = 0;
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].read_bytes.load(std::memory_order_relaxed) != 0 ||
        cells_[i].write_bytes.load(std::memory_order_relaxed) != 0) {
      last_nonzero = i + 1;
    }
  }
  out.reserve(last_nonzero);
  for (size_t i = 0; i < last_nonzero; ++i) {
    BandwidthSample s;
    s.time_ns = i * bucket_ns_;
    s.read_mbps =
        static_cast<double>(cells_[i].read_bytes.load(std::memory_order_relaxed)) * to_mbps;
    s.write_mbps =
        static_cast<double>(cells_[i].write_bytes.load(std::memory_order_relaxed)) * to_mbps;
    out.push_back(s);
  }
  return out;
}

}  // namespace nvmgc
