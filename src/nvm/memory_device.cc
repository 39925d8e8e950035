#include "src/nvm/memory_device.h"

#include <algorithm>
#include <cmath>

#include "src/nvm/fault_injector.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace nvmgc {

MemoryDevice::MemoryDevice(DeviceProfile profile) : model_(profile) {
  for (uint32_t t = 0; t <= kCachedThreadTerms; ++t) {
    thread_terms_[t] = model_.TermsFor(t);
  }
}

void MemoryDevice::BindTenantRange(uint8_t tenant, uint64_t base, uint64_t bytes) {
  NVMGC_CHECK_MSG(tenant < kMaxTenants, "tenant id out of range: a shared device supports "
                                        "at most BandwidthLedger::kMaxTenants tenants");
  const uint32_t count = tenant_range_count_.load(std::memory_order_relaxed);
  NVMGC_CHECK_MSG(count < kMaxTenantRanges, "too many tenant ranges bound to one device");
  tenant_ranges_[count] = TenantRange{tenant, base, base + bytes};
  // Publish the range after its fields are written; readers that miss the new
  // count attribute a brief prefix of traffic to tenant 0, which is fine —
  // Vms bind their arena before issuing any traffic against it.
  tenant_range_count_.store(count + 1, std::memory_order_release);
  for (uint32_t i = 0; i < count; ++i) {
    if (tenant_ranges_[i].tenant != tenant) {
      multi_tenant_.store(true, std::memory_order_relaxed);
    }
  }
}

uint8_t MemoryDevice::TenantFor(uint64_t address) const {
  const uint32_t count = tenant_range_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < count; ++i) {
    const TenantRange& r = tenant_ranges_[i];
    if (address >= r.base && address < r.end) {
      return r.tenant;
    }
  }
  return 0;
}

DeviceCounters MemoryDevice::tenant_counters(uint8_t tenant) const {
  return tenant < kMaxTenants ? ledger_.TenantTotals(tenant) : DeviceCounters{};
}

uint64_t MemoryDevice::CostNs(uint64_t now_ns, const AccessDescriptor& d) const {
  return CostAt(ledger_.EpochOf(now_ns), d, multi_tenant() ? TenantFor(d.address) : 0);
}

uint64_t MemoryDevice::CostAt(uint64_t epoch, const AccessDescriptor& d, uint8_t tenant) const {
  const DeviceProfile& p = model_.profile();

  // Latency term.
  double latency_ns = 0.0;
  if (d.pattern == AccessPattern::kRandom) {
    latency_ns = d.op == AccessOp::kRead ? static_cast<double>(p.random_read_latency_ns)
                                         : static_cast<double>(p.random_write_latency_ns);
    if (d.prefetched) {
      latency_ns *= 1.0 - p.prefetch_hide_fraction;
    }
  } else {
    const uint32_t lines = (d.bytes + 63) / 64;
    latency_ns = p.sequential_line_ns * static_cast<double>(lines);
  }

  // Bandwidth term: bytes over this thread's share of the device total.
  const BandwidthLedger::Mix window = ledger_.MixAt(epoch);
  const ThreadTerms terms = TermsFor(active_threads());
  const double total_mbps =
      model_.TotalBandwidthMbps(window.write_fraction, window.nt_write_fraction, terms);
  // Multiplying by 1/threads is exact only for a power of two (see
  // ThreadTerms); other counts divide, as the formula always did.
  const double per_thread_mbps = terms.inv_threads != 0.0
                                     ? total_mbps * terms.inv_threads
                                     : total_mbps / static_cast<double>(terms.threads);
  double share_mbps = per_thread_mbps * model_.PatternFraction(d.op, d.pattern);
  if (multi_tenant()) {
    // Shared device: scale this tenant's share by its occupancy-derived
    // fraction of the device (plus the cross-tenant interleaving penalty).
    // Devices with zero or one bound tenant never reach this branch, so the
    // single-Vm cost function is bit-identical to the pre-fleet model.
    const BandwidthLedger::TenantOccupancy occ = ledger_.OccupancyAt(epoch, tenant);
    share_mbps *= model_.TenantShareFraction(occ.own_fraction(), occ.active_tenants);
  }
  share_mbps = std::max(1.0, share_mbps);
  // 1 MB/s == 1e6 bytes / 1e9 ns, so ns = bytes * 1000 / MBps.
  const double bw_ns = static_cast<double>(d.bytes) * 1000.0 / share_mbps;

  return static_cast<uint64_t>(latency_ns + bw_ns + 0.5);
}

uint64_t MemoryDevice::Access(SimClock* clock, const AccessDescriptor& d) {
  NVMGC_DCHECK(clock != nullptr);
  const uint64_t now = clock->now_ns();
  // One epoch and one tenant lookup serve both the cost and the charge.
  const uint64_t epoch = ledger_.EpochOf(now);
  const uint8_t tenant =
      tenant_range_count_.load(std::memory_order_relaxed) > 0 ? TenantFor(d.address) : 0;
  uint64_t cost = CostAt(epoch, d, tenant);
  if (FaultInjector* injector = injector_.load(std::memory_order_acquire)) {
    cost = injector->PerturbCost(now, d, cost);
  }
  clock->Advance(cost);

  ledger_.ChargeEpoch(epoch, d, tenant);
  if (d.op == AccessOp::kWrite && persist_.enabled()) {
    persist_.NoteWrite(d.address, d.bytes);
  }
  return cost;
}

DeviceCounters MemoryDevice::counters() const {
  DeviceCounters c;
  for (uint8_t t = 0; t < kMaxTenants; ++t) {
    c += tenant_counters(t);
  }
  return c;
}

void MemoryDevice::ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const {
  const DeviceCounters c = counters();
  metrics->SetGauge(prefix + ".lifetime.read_bytes", c.read_bytes);
  metrics->SetGauge(prefix + ".lifetime.write_bytes", c.write_bytes);
  metrics->SetGauge(prefix + ".lifetime.nt_write_bytes", c.nt_write_bytes);
  metrics->SetGauge(prefix + ".lifetime.read_ops", c.read_ops);
  metrics->SetGauge(prefix + ".lifetime.write_ops", c.write_ops);
}

MixState MemoryDevice::CurrentMix(uint64_t now_ns) const {
  const BandwidthLedger::Mix window = ledger_.SampleMix(now_ns);
  MixState mix;
  mix.write_fraction = window.write_fraction;
  mix.nt_write_fraction = window.nt_write_fraction;
  mix.active_threads = active_threads();
  return mix;
}

double MemoryDevice::CurrentTotalBandwidthMbps(uint64_t now_ns) const {
  return model_.TotalBandwidthMbps(CurrentMix(now_ns));
}

}  // namespace nvmgc
