// The device's one per-access traffic record: 150 us epoch buckets of
// per-tenant read/write traffic, read by the cost model as a sliding-window
// mix estimate, settled into lifetime per-tenant totals when an epoch leaves
// the ring, and, while a recording is on, into a whole-run per-epoch series
// for the bandwidth-versus-time figures.

#ifndef NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_
#define NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/nvm/access.h"
#include "src/util/single_writer.h"

namespace nvmgc {

// Traffic totals over some span: one epoch, a whole run, one tenant or the
// whole device. Snapshot subtraction gives per-phase traffic (e.g. bytes
// moved during one GC pause).
struct DeviceCounters {
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t nt_write_bytes = 0;
  uint64_t read_ops = 0;
  uint64_t write_ops = 0;

  DeviceCounters& operator+=(const DeviceCounters& rhs) {
    read_bytes += rhs.read_bytes;
    write_bytes += rhs.write_bytes;
    nt_write_bytes += rhs.nt_write_bytes;
    read_ops += rhs.read_ops;
    write_ops += rhs.write_ops;
    return *this;
  }
  DeviceCounters operator-(const DeviceCounters& rhs) const {
    return DeviceCounters{read_bytes - rhs.read_bytes, write_bytes - rhs.write_bytes,
                          nt_write_bytes - rhs.nt_write_bytes, read_ops - rhs.read_ops,
                          write_ops - rhs.write_ops};
  }
  uint64_t total_bytes() const { return read_bytes + write_bytes; }
};

// Ring of time buckets. Charges are attributed to the bucket (epoch) that
// contains the accessing clock's simulated time; the mix and tenant-occupancy
// estimates aggregate the kWindowBuckets most recent epochs. When a charge
// reuses a slot, the epoch it held is settled into the lifetime totals, so
// every charged byte and op is counted in exactly one bucket and read back
// from there.
//
// Contract: one host thread drives a ledger at a time (see
// src/util/single_writer.h). Each charge is then O(1) single-writer work: the
// epoch of the most recent clock is cached, so a division happens only when a
// clock leaves that bucket, and running totals over the most recently sampled
// window make a sample O(1) too. They are rebuilt from the ring only when the
// sampled epoch moves or a charge recycles a slot the window counts.
class BandwidthLedger {
 public:
  // Tenants a shared device can attribute traffic to. Single-Vm devices only
  // ever use tenant 0.
  static constexpr uint32_t kMaxTenants = 8;
  // Epochs a mix or occupancy sample covers, ending at the sampled epoch.
  static constexpr uint64_t kWindowBuckets = 3;

  // `bucket_ns` is the bucket width in simulated nanoseconds. The defaults
  // (150 us buckets, 3-bucket sampling window) make the mix estimate adapt
  // within ~0.5 ms of simulated time — fast enough to see the read-mostly /
  // write-only phase separation the write cache creates.
  explicit BandwidthLedger(uint64_t bucket_ns = 150'000);

  // The epoch containing `now_ns` (== now_ns / bucket_ns()). A clock that
  // stays in the bucket of the previous call costs no division.
  uint64_t EpochOf(uint64_t now_ns) const;

  void Charge(uint64_t now_ns, const AccessDescriptor& d, uint8_t tenant = 0) {
    ChargeEpoch(EpochOf(now_ns), d, tenant);
  }
  void ChargeEpoch(uint64_t epoch, const AccessDescriptor& d, uint8_t tenant = 0);

  struct Mix {
    double write_fraction = 0.0;
    double nt_write_fraction = 0.0;
    uint64_t window_bytes = 0;
  };
  // Mix over the window ending at the epoch of `now_ns` (or at `epoch`).
  Mix SampleMix(uint64_t now_ns) const { return MixAt(EpochOf(now_ns)); }
  Mix MixAt(uint64_t epoch) const;

  // Reads the traffic of `epoch` (== time_ns / bucket_ns()) while it is still
  // resident in the ring (the ring spans kRingSize * bucket_ns() of simulated
  // time). Returns false when the epoch was never charged or its slot has been
  // reused for another epoch; the DeviceTimeline sampler counts that as a
  // missing bucket.
  bool ReadBucket(uint64_t epoch, DeviceCounters* out) const;

  // Lifetime traffic of `tenant`: its settled epochs plus the resident ones.
  // O(kRingSize).
  DeviceCounters TenantTotals(uint8_t tenant) const;

  // Whole-run series. From StartRecording on, every epoch that is settled is
  // also added to a growable per-epoch series; RecordedSeries() returns it
  // with the resident epochs folded in, element i covering simulated time
  // [i, i + 1) * bucket_ns(). Start recording before the traffic to record:
  // epochs settled earlier read as zero. Empty when not recording.
  void StartRecording() { recording_ = true; }
  std::vector<DeviceCounters> RecordedSeries() const;

  // Occupancy of one tenant relative to the whole window, for the contention
  // model (BandwidthModel::TenantShareFraction).
  struct TenantOccupancy {
    uint64_t own_bytes = 0;
    uint64_t total_bytes = 0;
    // Tenants with nonzero bytes in the window; the sampling tenant always
    // counts as active (it is issuing the access being costed).
    uint32_t active_tenants = 1;

    double own_fraction() const {
      if (total_bytes == 0) {
        return 1.0;
      }
      return static_cast<double>(own_bytes) / static_cast<double>(total_bytes);
    }
  };
  // Per-tenant occupancy over the window ending at the epoch of `now_ns` (or
  // at `epoch`).
  TenantOccupancy SampleTenantOccupancy(uint64_t now_ns, uint8_t tenant) const {
    return OccupancyAt(EpochOf(now_ns), tenant);
  }
  TenantOccupancy OccupancyAt(uint64_t epoch, uint8_t tenant) const;

  uint64_t bucket_ns() const { return bucket_ns_; }
  static constexpr int ring_size() { return kRingSize; }

 private:
  // Traffic of one tenant in one epoch, or its settled lifetime total.
  struct TenantCounts {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> nt_write_bytes{0};
    std::atomic<uint64_t> read_ops{0};
    std::atomic<uint64_t> write_ops{0};

    void Add(const AccessDescriptor& d);
    void Add(const DeviceCounters& c);
    DeviceCounters Load() const;
    void Clear();
  };
  struct Bucket {
    std::atomic<uint64_t> epoch{kNoEpoch};
    TenantCounts tenants[kMaxTenants];
  };
  // Byte totals of the running window. Tenant bytes are kept alongside the
  // direction split rather than as a tenant x direction matrix: the
  // contention model needs occupancy, the mix model needs direction, and no
  // sample needs both at once.
  struct WindowCounts {
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> nt_bytes{0};
    std::atomic<uint64_t> tenant_bytes[kMaxTenants] = {};
    // Tenants with nonzero tenant_bytes.
    std::atomic<uint32_t> active_tenants{0};

    void Add(const AccessDescriptor& d, uint8_t tenant);
    void Clear();
  };
  static constexpr int kRingSize = 64;
  static constexpr uint64_t kNoEpoch = UINT64_MAX;

  Bucket* BucketFor(uint64_t epoch);
  // Resets `b` for `epoch`, settling the epoch it held.
  void Recycle(Bucket* b, uint64_t epoch);
  bool InWindow(uint64_t epoch) const;
  // Makes window_ the totals of the window ending at `epoch`.
  void SyncWindow(uint64_t epoch) const {
    if (window_epoch_.load(std::memory_order_relaxed) != epoch) {
      RebuildWindow(epoch);
    }
  }
  void RebuildWindow(uint64_t epoch) const;

  uint64_t bucket_ns_;
  Bucket ring_[kRingSize];
  // Epoch of the most recent EpochOf call (its bucket is [e, e + 1) *
  // bucket_ns_).
  mutable std::atomic<uint64_t> cached_epoch_{0};
  // Running totals of the window ending at window_epoch_; kNoEpoch means they
  // must be rebuilt from the ring before the next sample.
  mutable std::atomic<uint64_t> window_epoch_{kNoEpoch};
  mutable WindowCounts window_;
  // Per-tenant totals of every epoch that has left the ring.
  TenantCounts settled_[kMaxTenants];
  // The whole-run series (see StartRecording); written only on settlement.
  bool recording_ = false;
  std::vector<DeviceCounters> series_;
};

// The per-access path is defined here so that MemoryDevice::Access inlines it.

inline void BandwidthLedger::TenantCounts::Add(const AccessDescriptor& d) {
  if (d.op == AccessOp::kRead) {
    SingleWriterAdd(&read_bytes, d.bytes);
    SingleWriterAdd(&read_ops, 1);
  } else {
    SingleWriterAdd(&write_bytes, d.bytes);
    SingleWriterAdd(&write_ops, 1);
    if (d.non_temporal) {
      SingleWriterAdd(&nt_write_bytes, d.bytes);
    }
  }
}

inline void BandwidthLedger::WindowCounts::Add(const AccessDescriptor& d, uint8_t tenant) {
  if (d.op == AccessOp::kRead) {
    SingleWriterAdd(&read_bytes, d.bytes);
  } else {
    SingleWriterAdd(&write_bytes, d.bytes);
    if (d.non_temporal) {
      SingleWriterAdd(&nt_bytes, d.bytes);
    }
  }
  std::atomic<uint64_t>& own = tenant_bytes[tenant % kMaxTenants];
  const uint64_t before = own.load(std::memory_order_relaxed);
  own.store(before + d.bytes, std::memory_order_relaxed);
  if (before == 0 && d.bytes != 0) {
    active_tenants.store(active_tenants.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
}

inline uint64_t BandwidthLedger::EpochOf(uint64_t now_ns) const {
  const uint64_t cached = cached_epoch_.load(std::memory_order_relaxed);
  // Unsigned: a clock behind the cached bucket's start wraps to a huge offset.
  if (now_ns - cached * bucket_ns_ < bucket_ns_) {
    return cached;
  }
  const uint64_t epoch = now_ns / bucket_ns_;
  cached_epoch_.store(epoch, std::memory_order_relaxed);
  return epoch;
}

inline bool BandwidthLedger::InWindow(uint64_t epoch) const {
  const uint64_t end = window_epoch_.load(std::memory_order_relaxed);
  return end != kNoEpoch && epoch <= end && end - epoch < kWindowBuckets;
}

inline BandwidthLedger::Bucket* BandwidthLedger::BucketFor(uint64_t epoch) {
  Bucket& b = ring_[epoch % kRingSize];
  if (b.epoch.load(std::memory_order_relaxed) != epoch) {
    Recycle(&b, epoch);
  }
  return &b;
}

inline void BandwidthLedger::ChargeEpoch(uint64_t epoch, const AccessDescriptor& d,
                                         uint8_t tenant) {
  BucketFor(epoch)->tenants[tenant % kMaxTenants].Add(d);
  if (InWindow(epoch)) {
    window_.Add(d, tenant);
  }
}

inline BandwidthLedger::Mix BandwidthLedger::MixAt(uint64_t epoch) const {
  SyncWindow(epoch);
  const uint64_t reads = window_.read_bytes.load(std::memory_order_relaxed);
  const uint64_t writes = window_.write_bytes.load(std::memory_order_relaxed);
  const uint64_t nt = window_.nt_bytes.load(std::memory_order_relaxed);
  Mix mix;
  const uint64_t total = reads + writes;
  mix.window_bytes = total;
  if (total > 0) {
    mix.write_fraction = static_cast<double>(writes) / static_cast<double>(total);
    mix.nt_write_fraction = static_cast<double>(nt) / static_cast<double>(total);
  }
  return mix;
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_BANDWIDTH_LEDGER_H_
