#include "src/nvm/fault_injector.h"

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace nvmgc {

namespace {

// splitmix64 finalizer: the per-access hash behind deterministic stall draws.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FaultPlan& FaultPlan::AddLatencySpike(uint64_t start_ns, uint64_t end_ns, double multiplier) {
  FaultWindow w;
  w.kind = FaultKind::kLatencySpike;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  w.cost_multiplier = multiplier;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::AddThrottle(uint64_t start_ns, uint64_t end_ns,
                                  double bandwidth_fraction) {
  FaultWindow w;
  w.kind = FaultKind::kBandwidthThrottle;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  w.bandwidth_fraction = bandwidth_fraction;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::AddStalls(uint64_t start_ns, uint64_t end_ns, double probability,
                                uint64_t stall_ns, uint32_t max_retries) {
  FaultWindow w;
  w.kind = FaultKind::kAccessStall;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  w.stall_probability = probability;
  w.stall_ns = stall_ns;
  w.max_retries = max_retries == 0 ? 1 : max_retries;
  windows.push_back(w);
  return *this;
}

FaultPlan& FaultPlan::AddDramPressure(uint64_t start_ns, uint64_t end_ns) {
  FaultWindow w;
  w.kind = FaultKind::kDramPressure;
  w.start_ns = start_ns;
  w.end_ns = end_ns;
  windows.push_back(w);
  return *this;
}

FaultPlan FaultPlan::Randomized(uint64_t seed, uint64_t horizon_ns) {
  NVMGC_CHECK(horizon_ns > 0);
  Random rng(seed);
  FaultPlan plan;
  plan.seed = seed;

  // Guaranteed sustained-throttle window opening the run: any pause starting
  // early runs degraded.
  const uint64_t throttle_end = horizon_ns * rng.NextInRange(30, 60) / 100;
  plan.AddThrottle(0, throttle_end, 0.2 + rng.NextDouble() * 0.3);

  // Guaranteed DRAM-pressure window opening the run: the first pauses must
  // take the direct-to-NVM write-cache fallback.
  const uint64_t pressure_end = horizon_ns * rng.NextInRange(40, 80) / 100;
  plan.AddDramPressure(0, pressure_end);

  // 1-3 latency spikes anywhere in the horizon.
  const uint64_t spikes = rng.NextInRange(1, 3);
  for (uint64_t i = 0; i < spikes; ++i) {
    const uint64_t start = rng.NextBelow(horizon_ns);
    const uint64_t duration = horizon_ns / 50 + rng.NextBelow(horizon_ns / 10 + 1);
    plan.AddLatencySpike(start, start + duration, 2.0 + rng.NextDouble() * 6.0);
  }

  // 1-2 transient-stall windows with bounded retries.
  const uint64_t stall_windows = rng.NextInRange(1, 2);
  for (uint64_t i = 0; i < stall_windows; ++i) {
    const uint64_t start = rng.NextBelow(horizon_ns);
    const uint64_t duration = horizon_ns / 20 + rng.NextBelow(horizon_ns / 5 + 1);
    plan.AddStalls(start, start + duration, 0.002 + rng.NextDouble() * 0.01,
                   1000 + rng.NextBelow(8000), 1 + static_cast<uint32_t>(rng.NextBelow(3)));
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const FaultWindow& w : plan_.windows) {
    NVMGC_CHECK(w.end_ns >= w.start_ns);
    if (w.kind == FaultKind::kBandwidthThrottle) {
      NVMGC_CHECK(w.bandwidth_fraction > 0.0 && w.bandwidth_fraction <= 1.0);
    }
    if (w.kind == FaultKind::kLatencySpike) {
      NVMGC_CHECK(w.cost_multiplier >= 1.0);
    }
  }
}

uint64_t FaultInjector::StallDraw(uint64_t now_ns, uint64_t address) const {
  return Mix64(plan_.seed ^ Mix64(address) ^ (now_ns * 0xd1b54a32d192ed03ULL));
}

uint64_t FaultInjector::PerturbCost(uint64_t now_ns, const AccessDescriptor& d,
                                    uint64_t base_cost_ns) {
  double cost = static_cast<double>(base_cost_ns);
  uint64_t extra = 0;
  bool touched = false;
  for (const FaultWindow& w : plan_.windows) {
    if (!w.Contains(now_ns)) {
      continue;
    }
    switch (w.kind) {
      case FaultKind::kLatencySpike:
        cost *= w.cost_multiplier;
        spiked_accesses_.fetch_add(1, std::memory_order_relaxed);
        touched = true;
        break;
      case FaultKind::kBandwidthThrottle:
        cost /= w.bandwidth_fraction;
        throttled_accesses_.fetch_add(1, std::memory_order_relaxed);
        touched = true;
        break;
      case FaultKind::kAccessStall: {
        const uint64_t draw = StallDraw(now_ns, d.address);
        // Top 53 bits as a uniform double in [0, 1).
        const double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
        if (u < w.stall_probability) {
          // The access stalls; the runtime retries with exponential backoff.
          // Retry count is drawn from the low bits, bounded by max_retries.
          const uint32_t retries = 1 + static_cast<uint32_t>(draw % w.max_retries);
          uint64_t stall_total = 0;
          for (uint32_t r = 0; r < retries; ++r) {
            stall_total += w.stall_ns << r;
          }
          extra += stall_total;
          stalls_injected_.fetch_add(1, std::memory_order_relaxed);
          stall_retries_.fetch_add(retries, std::memory_order_relaxed);
          stall_extra_ns_.fetch_add(stall_total, std::memory_order_relaxed);
          touched = true;
        }
        break;
      }
      case FaultKind::kDramPressure:
        break;  // Allocation-path fault; does not change access cost.
    }
  }
  if (touched) {
    perturbed_accesses_.fetch_add(1, std::memory_order_relaxed);
  }
  return static_cast<uint64_t>(cost + 0.5) + extra;
}

bool FaultInjector::ThrottleActive(uint64_t now_ns) const {
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kBandwidthThrottle && w.Contains(now_ns)) {
      return true;
    }
  }
  return false;
}

double FaultInjector::BandwidthFraction(uint64_t now_ns) const {
  double fraction = 1.0;
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kBandwidthThrottle && w.Contains(now_ns)) {
      fraction *= w.bandwidth_fraction;
    }
  }
  return fraction;
}

bool FaultInjector::DramPressureActive(uint64_t now_ns) const {
  for (const FaultWindow& w : plan_.windows) {
    if (w.kind == FaultKind::kDramPressure && w.Contains(now_ns)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::AnyFaultActive(uint64_t now_ns) const {
  for (const FaultWindow& w : plan_.windows) {
    if (w.Contains(now_ns)) {
      return true;
    }
  }
  return false;
}

FaultStats FaultInjector::stats() const {
  FaultStats s;
  s.perturbed_accesses = perturbed_accesses_.load(std::memory_order_relaxed);
  s.spiked_accesses = spiked_accesses_.load(std::memory_order_relaxed);
  s.throttled_accesses = throttled_accesses_.load(std::memory_order_relaxed);
  s.stalls_injected = stalls_injected_.load(std::memory_order_relaxed);
  s.stall_retries = stall_retries_.load(std::memory_order_relaxed);
  s.stall_extra_ns = stall_extra_ns_.load(std::memory_order_relaxed);
  return s;
}

void FaultInjector::ExportMetrics(MetricsRegistry* metrics, const std::string& prefix) const {
  const FaultStats s = stats();
  metrics->SetGauge(prefix + ".perturbed_accesses", s.perturbed_accesses);
  metrics->SetGauge(prefix + ".spiked_accesses", s.spiked_accesses);
  metrics->SetGauge(prefix + ".throttled_accesses", s.throttled_accesses);
  metrics->SetGauge(prefix + ".stalls_injected", s.stalls_injected);
  metrics->SetGauge(prefix + ".stall_retries", s.stall_retries);
  metrics->SetGauge(prefix + ".stall_extra_ns", s.stall_extra_ns);
}

}  // namespace nvmgc
