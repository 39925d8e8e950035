#include "src/policy/policy_engine.h"

#include <algorithm>
#include <bit>
#include <cstdarg>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {

// Controller thresholds (documented in DESIGN.md §7). Grow/shrink pairs are
// deliberately far apart: the gap is the hysteresis band that keeps a knob
// from oscillating around a single operating point.

// Write cache: grow when this share of survivor bytes missed the cache,
// shrink when the pause staged less than 1/4 of the capacity with no misses.
constexpr double kCacheGrowOverflowFraction = 0.10;
constexpr double kCacheShrinkOccupancy = 0.25;

// Header map: double when this share of forwardings overflowed the bounded
// probe window; halve when occupancy fell below 1/16 with ~no overflows.
constexpr double kHmGrowOverflowRate = 0.20;
constexpr double kHmShrinkOverflowRate = 0.005;
constexpr double kHmShrinkOccupancy = 1.0 / 16.0;

// Async flushing: off when more than half the flushed regions were
// steal-tainted (their LIFO readiness never fired), back on below 20%.
constexpr double kAsyncOffTaintFraction = 0.50;
constexpr double kAsyncOnTaintFraction = 0.20;

// Durability: retreat when flush+fence time eats more than this share of the
// pause while async flushing is on — async flushing fences once per region
// (each flushing worker issues its own SFENCE) where the sync write-back
// fences once per worker batch, so backing off async is the one knob that
// directly removes fences.
constexpr double kPersistRetreatStallFraction = 0.25;
// Fleet-arbiter stall share of the inter-pause interval above which the
// tenant sheds GC threads (see DecideGcThreads).
constexpr double kFleetThrottleStallFraction = 0.25;

// Threads: the model comparison only applies when the pause was actually
// device-bound; 2% margins make shrink/grow verdicts mutually exclusive.
constexpr double kThreadsDeviceBoundUtilization = 0.85;
constexpr double kThreadsModelMargin = 0.02;

// Prefetch distance: widen under this hit rate, narrow above the (much
// stricter) upper bound.
constexpr double kPrefetchGrowHitRate = 0.60;
constexpr double kPrefetchShrinkHitRate = 0.995;
constexpr uint32_t kPrefetchMinWindow = 8;
constexpr uint64_t kPrefetchMinSamples = 100;

std::string Format(const char* fmt, ...) {
  char buf[192];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

}  // namespace

const char* PolicyKnobName(PolicyKnob knob) {
  switch (knob) {
    case PolicyKnob::kGcThreads:
      return "gc_threads";
    case PolicyKnob::kWriteCacheBytes:
      return "write_cache_bytes";
    case PolicyKnob::kHeaderMapEnabled:
      return "header_map_enabled";
    case PolicyKnob::kHeaderMapEntries:
      return "header_map_entries";
    case PolicyKnob::kAsyncFlush:
      return "async_flush";
    case PolicyKnob::kPrefetchWindow:
      return "prefetch_window";
  }
  return "?";
}

PolicyEngine::PolicyEngine(const GcOptions& options, size_t heap_arena_bytes,
                           size_t cache_arena_bytes, const DeviceProfile& heap_profile)
    : options_(options), model_(heap_profile) {
  NVMGC_CHECK_MSG(options.adaptive_policy, "PolicyEngine built without AdaptivePolicy()");
  const std::string error = options.Validate();
  NVMGC_CHECK_MSG(error.empty(), error.c_str());

  max_threads_ = options.gc_threads;
  max_cache_bytes_ =
      std::max(std::min(cache_arena_bytes, heap_arena_bytes / 8), kMinWriteCacheBytes);

  const size_t hm_bytes = options.HeaderMapBytesFor(heap_arena_bytes);
  const size_t initial_hm_entries = std::bit_floor(std::max<size_t>(hm_bytes / 16, 16));
  min_hm_entries_ = 16;
  max_hm_entries_ =
      std::bit_floor(std::max(heap_arena_bytes / 8 / 16, initial_hm_entries));

  // The initial tuning is the static configuration, with the sentinel values
  // resolved so every later decision has a concrete old_value.
  tuning_ = DefaultGcTuning(options);
  tuning_.write_cache_capacity_bytes = std::clamp(
      options.WriteCacheBytesFor(heap_arena_bytes), kMinWriteCacheBytes, max_cache_bytes_);
  tuning_.header_map_entries = initial_hm_entries;
}

bool PolicyEngine::Ready(PolicyKnob knob) const {
  const uint64_t last = last_change_[static_cast<size_t>(knob)];
  return last == 0 ||
         current_pause_ >= last + kCooldownPauses + 1;
}

void PolicyEngine::Decide(PolicyKnob knob, uint64_t old_value, uint64_t new_value,
                          bool retreat, std::string reason) {
  PolicyDecision d;
  d.pause_id = current_pause_;
  d.knob = knob;
  d.old_value = old_value;
  d.new_value = new_value;
  d.retreat = retreat;
  d.reason = std::move(reason);
  decisions_.push_back(std::move(d));
  last_change_[static_cast<size_t>(knob)] = current_pause_;
  ++decisions_this_pause_;
}

size_t PolicyEngine::OnPauseEnd(const PolicySignals& s) {
  ++pauses_seen_;
  current_pause_ = s.pause_id;
  decisions_this_pause_ = 0;
  // The retreat guardrail fires even during warmup and inside cooldowns: a
  // faulting device does not wait for the controller to feel settled.
  if (MaybeRetreat(s)) {
    return decisions_this_pause_;
  }
  if (pauses_seen_ <= kWarmupPauses) {
    return 0;
  }
  if (options_.use_write_cache) {
    DecideWriteCache(s);
    DecideAsyncFlush(s);
  }
  if (options_.use_header_map) {
    DecideHeaderMap(s);
  }
  DecideGcThreads(s);
  if (options_.prefetch) {
    DecidePrefetch(s);
  }
  return decisions_this_pause_;
}

bool PolicyEngine::MaybeRetreat(const PolicySignals& s) {
  const bool degraded = s.cycle.degraded_mode != 0;
  const bool dram_pressure =
      s.cycle.cache_fault_denials > 0 || s.cycle.cache_fallback_workers > 0;
  const bool persist_stall = options_.durable && tuning_.async_flush &&
                             s.cycle.persist_ns > 0 &&
                             s.persist_stall_fraction() > kPersistRetreatStallFraction;
  if (!degraded && !dram_pressure && !persist_stall) {
    return false;
  }
  ++retreats_;
  retreat_until_ = current_pause_ + kCooldownPauses + 1;
  const char* cause = degraded        ? "degraded pause (sustained throttle window)"
                      : dram_pressure ? "DRAM pressure (pair denials / worker fallback)"
                                      : "fence stalls dominate the pause (per-region SFENCEs)";
  if (tuning_.async_flush) {
    tuning_.async_flush = false;
    Decide(PolicyKnob::kAsyncFlush, 1, 0, /*retreat=*/true,
           Format("retreat: %s - async flushing off", cause));
  }
  if (dram_pressure && options_.use_write_cache &&
      tuning_.write_cache_capacity_bytes > kMinWriteCacheBytes) {
    const size_t cur = tuning_.write_cache_capacity_bytes;
    const size_t next = std::max(kMinWriteCacheBytes, cur / 2);
    tuning_.write_cache_capacity_bytes = next;
    Decide(PolicyKnob::kWriteCacheBytes, cur, next, /*retreat=*/true,
           Format("retreat: %s - halve staging demand on DRAM", cause));
  }
  return true;
}

void PolicyEngine::DecideWriteCache(const PolicySignals& s) {
  if (!Ready(PolicyKnob::kWriteCacheBytes)) {
    return;
  }
  const size_t cur = tuning_.write_cache_capacity_bytes;
  const double f = kStepFraction;
  const double overflow = s.cache_overflow_fraction();
  if (overflow > kCacheGrowOverflowFraction && current_pause_ >= retreat_until_) {
    const size_t next =
        std::min(max_cache_bytes_, cur + static_cast<size_t>(static_cast<double>(cur) * f));
    if (next != cur) {
      tuning_.write_cache_capacity_bytes = next;
      Decide(PolicyKnob::kWriteCacheBytes, cur, next, /*retreat=*/false,
             Format("cache overflow %.1f%% of survivor bytes > %.0f%% - grow",
                    overflow * 100.0, kCacheGrowOverflowFraction * 100.0));
    }
    return;
  }
  if (s.cycle.cache_overflow_bytes == 0 &&
      static_cast<double>(s.cycle.cache_bytes_staged) <
          static_cast<double>(cur) * kCacheShrinkOccupancy) {
    size_t next = std::max(kMinWriteCacheBytes,
                           cur - static_cast<size_t>(static_cast<double>(cur) * f));
    // Never shrink below twice what the pause actually staged — that would
    // manufacture the very overflow the grow rule reacts to.
    next = std::max(next, static_cast<size_t>(s.cycle.cache_bytes_staged) * 2);
    next = std::min(next, cur);
    if (next != cur) {
      tuning_.write_cache_capacity_bytes = next;
      Decide(PolicyKnob::kWriteCacheBytes, cur, next, /*retreat=*/false,
             Format("staged %.1f%% of capacity with no overflow - shrink",
                    static_cast<double>(s.cycle.cache_bytes_staged) /
                        static_cast<double>(cur) * 100.0));
    }
  }
}

void PolicyEngine::DecideHeaderMap(const PolicySignals& s) {
  // Gate: track the adapted thread count across the paper's threshold. This
  // is the feedback path by which a thread-count decision cascades into the
  // header map the next pause.
  const bool want = tuning_.active_gc_threads >= options_.header_map_min_threads;
  if (want != tuning_.header_map_enabled && Ready(PolicyKnob::kHeaderMapEnabled)) {
    tuning_.header_map_enabled = want;
    Decide(PolicyKnob::kHeaderMapEnabled, want ? 0 : 1, want ? 1 : 0, /*retreat=*/false,
           Format("active threads %u %s header_map_min_threads %u",
                  tuning_.active_gc_threads, want ? ">= " : "below",
                  options_.header_map_min_threads));
  }
  if (!tuning_.header_map_enabled || !Ready(PolicyKnob::kHeaderMapEntries)) {
    return;
  }
  const size_t cur = tuning_.header_map_entries;
  const double overflow = s.hm_overflow_rate();
  const uint64_t forwardings = s.cycle.header_map_installs + s.cycle.header_map_overflows;
  if (forwardings == 0) {
    return;  // Header map saw no traffic this pause; nothing to learn.
  }
  if (overflow > kHmGrowOverflowRate && cur < max_hm_entries_ &&
      current_pause_ >= retreat_until_) {
    const size_t next = std::min(max_hm_entries_, cur * 2);
    tuning_.header_map_entries = next;
    Decide(PolicyKnob::kHeaderMapEntries, cur, next, /*retreat=*/false,
           Format("probe overflow %.1f%% > %.0f%% - chains exceed the bounded "
                  "window, double the table",
                  overflow * 100.0, kHmGrowOverflowRate * 100.0));
    return;
  }
  if (overflow < kHmShrinkOverflowRate &&
      static_cast<double>(s.cycle.header_map_installs) <
          static_cast<double>(cur) * kHmShrinkOccupancy &&
      cur > min_hm_entries_) {
    const size_t next = std::max(min_hm_entries_, cur / 2);
    tuning_.header_map_entries = next;
    Decide(PolicyKnob::kHeaderMapEntries, cur, next, /*retreat=*/false,
           Format("occupancy %.2f%% with no overflow - halve the table",
                  static_cast<double>(s.cycle.header_map_installs) /
                      static_cast<double>(cur) * 100.0));
  }
}

void PolicyEngine::DecideAsyncFlush(const PolicySignals& s) {
  if (!Ready(PolicyKnob::kAsyncFlush)) {
    return;
  }
  if (s.cycle.regions_flushed_sync + s.cycle.regions_flushed_async == 0) {
    return;  // No flush traffic to judge by.
  }
  const double taint = s.steal_taint_fraction();
  if (tuning_.async_flush && taint > kAsyncOffTaintFraction) {
    tuning_.async_flush = false;
    Decide(PolicyKnob::kAsyncFlush, 1, 0, /*retreat=*/false,
           Format("steal taint %.0f%% of flushed regions > %.0f%% - LIFO "
                  "readiness broken, flush synchronously",
                  taint * 100.0, kAsyncOffTaintFraction * 100.0));
    return;
  }
  if (!tuning_.async_flush && taint < kAsyncOnTaintFraction &&
      current_pause_ >= retreat_until_) {
    tuning_.async_flush = true;
    Decide(PolicyKnob::kAsyncFlush, 0, 1, /*retreat=*/false,
           Format("steal taint %.0f%% of flushed regions < %.0f%% - overlap "
                  "flushes with the read phase",
                  taint * 100.0, kAsyncOnTaintFraction * 100.0));
  }
}

void PolicyEngine::DecideGcThreads(const PolicySignals& s) {
  if (!Ready(PolicyKnob::kGcThreads)) {
    return;
  }
  const uint32_t cur = tuning_.active_gc_threads;
  const uint32_t step = std::max<uint32_t>(
      1, static_cast<uint32_t>(static_cast<double>(cur) * kStepFraction / 2.0));
  // Fleet citizenship: when the bandwidth arbiter is stalling this tenant
  // (over budget while a higher QoS tier competes), more copy parallelism
  // only deepens the overshoot the stalls repay. Step the fan-out down and
  // let the cooldown window pace further shrinks while the throttling lasts.
  const double fleet_stall = s.fleet_stall_fraction();
  if (fleet_stall > kFleetThrottleStallFraction && cur > kMinGcThreads) {
    const uint32_t down = cur - std::min(cur - kMinGcThreads, step);
    tuning_.active_gc_threads = down;
    Decide(PolicyKnob::kGcThreads, cur, down, /*retreat=*/false,
           Format("fleet arbiter stalled %.0f%% of the interval - shed copy "
                  "bandwidth demand",
                  fleet_stall * 100.0));
    return;
  }
  if (s.read_model_mbps <= 0.0) {
    return;
  }
  MixState mix;
  mix.write_fraction = s.read_interleave;
  mix.nt_write_fraction = 0.0;
  mix.active_threads = cur;
  const double at_cur = model_.TotalBandwidthMbps(mix);
  if (at_cur <= 0.0) {
    return;
  }
  const double util = s.bandwidth_utilization();
  const uint32_t down = cur - std::min(cur - kMinGcThreads, step);
  const uint32_t up = std::min(max_threads_, cur + step);
  // Shrink only when the pause was device-bound AND the model says fewer
  // workers sustain strictly more bandwidth (past the saturation knee):
  // otherwise fewer workers just means less CPU parallelism.
  if (down < cur && util > kThreadsDeviceBoundUtilization) {
    mix.active_threads = down;
    const double at_down = model_.TotalBandwidthMbps(mix);
    if (at_down > at_cur * (1.0 + kThreadsModelMargin)) {
      tuning_.active_gc_threads = down;
      Decide(PolicyKnob::kGcThreads, cur, down, /*retreat=*/false,
             Format("device-bound (%.0f%% of model): %.0f MB/s at %u threads vs "
                    "%.0f at %u - past the saturation knee",
                    util * 100.0, at_down, down, at_cur, cur));
      return;
    }
  }
  // Grow whenever the model says the added workers will not collapse the
  // bandwidth under the observed mix (CPU parallelism is then free).
  if (up > cur && current_pause_ >= retreat_until_) {
    mix.active_threads = up;
    const double at_up = model_.TotalBandwidthMbps(mix);
    if (at_up >= at_cur * (1.0 - kThreadsModelMargin)) {
      tuning_.active_gc_threads = up;
      Decide(PolicyKnob::kGcThreads, cur, up, /*retreat=*/false,
             Format("model holds %.0f MB/s at %u threads (%.0f at %u) - "
                    "parallelism is free under this mix",
                    at_up, up, at_cur, cur));
    }
  }
}

void PolicyEngine::DecidePrefetch(const PolicySignals& s) {
  if (!Ready(PolicyKnob::kPrefetchWindow) ||
      s.cycle.prefetches_issued < kPrefetchMinSamples) {
    return;
  }
  const uint32_t cur = tuning_.prefetch_window;
  const double hit = s.prefetch_hit_rate();
  if (hit < kPrefetchGrowHitRate && cur < 64) {
    const uint32_t next = std::min<uint32_t>(64, cur * 2);
    tuning_.prefetch_window = next;
    Decide(PolicyKnob::kPrefetchWindow, cur, next, /*retreat=*/false,
           Format("prefetch hit rate %.0f%% < %.0f%% - widen the distance",
                  hit * 100.0, kPrefetchGrowHitRate * 100.0));
    return;
  }
  if (hit > kPrefetchShrinkHitRate && cur > kPrefetchMinWindow * 2) {
    const uint32_t next = std::max(kPrefetchMinWindow, cur / 2);
    tuning_.prefetch_window = next;
    Decide(PolicyKnob::kPrefetchWindow, cur, next, /*retreat=*/false,
           Format("prefetch hit rate %.1f%% - narrow the distance, issue later",
                  hit * 100.0));
  }
}

void PolicyEngine::ExportMetrics(MetricsRegistry* metrics) const {
  metrics->SetGauge("policy.active_threads", tuning_.active_gc_threads);
  metrics->SetGauge("policy.write_cache_capacity_bytes",
                    options_.use_write_cache ? tuning_.write_cache_capacity_bytes : 0);
  metrics->SetGauge("policy.header_map_enabled", tuning_.header_map_enabled ? 1 : 0);
  metrics->SetGauge("policy.header_map_entries",
                    options_.use_header_map ? tuning_.header_map_entries : 0);
  metrics->SetGauge("policy.async_flush", tuning_.async_flush ? 1 : 0);
  metrics->SetGauge("policy.prefetch_window", tuning_.prefetch_window);
  metrics->SetGauge("policy.decisions_total", decisions_.size());
  metrics->SetGauge("policy.retreats", retreats_);
}

void PolicyEngine::EmitTraceCounters(GcTracer* tracer, uint64_t now_ns) const {
  if (tracer == nullptr || !tracer->enabled()) {
    return;
  }
  tracer->EmitCounter("policy.active_threads", "policy", now_ns,
                      static_cast<double>(tuning_.active_gc_threads));
  tracer->EmitCounter("policy.write_cache_mb", "policy", now_ns,
                      options_.use_write_cache
                          ? static_cast<double>(tuning_.write_cache_capacity_bytes) / 1e6
                          : 0.0);
  tracer->EmitCounter("policy.header_map_entries", "policy", now_ns,
                      tuning_.header_map_enabled
                          ? static_cast<double>(tuning_.header_map_entries)
                          : 0.0);
  tracer->EmitCounter("policy.async_flush", "policy", now_ns,
                      tuning_.async_flush ? 1.0 : 0.0);
  tracer->EmitCounter("policy.prefetch_window", "policy", now_ns,
                      static_cast<double>(tuning_.prefetch_window));
  tracer->EmitCounter("policy.decisions_total", "policy", now_ns,
                      static_cast<double>(decisions_.size()));
}

}  // namespace nvmgc
