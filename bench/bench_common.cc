#include "bench/bench_common.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <utility>

#include "bench/bench_runner.h"
#include "src/runtime/vm.h"

namespace nvmgc {

namespace {

// A compact tag describing the GcOptions knobs that matter for telling sweep
// points apart ("wc" / "wc:32768" / "hm:16384" / "nt" / "async" / ...).
std::string GcOptionsTag(const GcOptions& gc) {
  std::string tag;
  const auto add = [&tag](const std::string& part) {
    if (!tag.empty()) {
      tag.push_back('+');
    }
    tag.append(part);
  };
  if (gc.use_write_cache) {
    add(gc.unlimited_write_cache
            ? std::string("wc:unlimited")
            : (gc.write_cache_bytes > 0 ? "wc:" + std::to_string(gc.write_cache_bytes) : "wc"));
  }
  if (gc.use_header_map) {
    add(gc.header_map_bytes > 0 ? "hm:" + std::to_string(gc.header_map_bytes) : "hm");
  }
  if (gc.use_non_temporal) {
    add("nt");
  }
  if (gc.async_flush) {
    add("async");
  }
  if (gc.prefetch) {
    add(gc.prefetch_header_map ? "pf:hm" : "pf");
  }
  return tag.empty() ? "vanilla" : tag;
}

double g_scale = -1.0;  // <0: uninitialized, read env on first use.
int g_reps = 0;         // 0: uninitialized.

// Label → filesystem-safe subdirectory name for incident dumps ("/" and
// anything else exotic becomes "_").
std::string SanitizeLabel(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '-' && c != '_' &&
        c != '.' && c != '+') {
      c = '_';
    }
  }
  return out;
}

// Arms the flight recorder's incident dumps for one observed run: each label
// gets its own subdirectory of --flight-record so per-recorder incident
// sequence numbers never collide across Vms.
void ApplyFlightRecorder(const BenchContext& ctx, const std::string& label,
                         VmOptions* options) {
  if (!ctx.flight_recording()) {
    return;
  }
  options->flight_recorder.dump_dir = ctx.flight_record_dir() + "/" + SanitizeLabel(label);
  if (ctx.fr_threshold_ns() > 0) {
    options->flight_recorder.pause_threshold_ns = ctx.fr_threshold_ns();
  }
}

}  // namespace

const char* GcVariantName(GcVariant variant) {
  switch (variant) {
    case GcVariant::kVanilla:
      return "vanilla";
    case GcVariant::kWriteCache:
      return "+writecache";
    case GcVariant::kAll:
      return "+all";
    case GcVariant::kAllAsync:
      return "+all-async";
  }
  return "?";
}

const char* DeviceKindShortName(DeviceKind kind) {
  return kind == DeviceKind::kDram ? "dram" : "nvm";
}

HeapConfig DefaultHeap(DeviceKind device, bool eden_on_dram) {
  HeapConfig h;
  h.region_bytes = 64 * 1024;
  h.heap_regions = 1024;       // 64 MiB heap.
  h.eden_regions = 128;        // 8 MiB eden.
  h.dram_cache_regions = 384;  // Staging + (optionally) DRAM eden.
  // Long-lived data tenures into the old generation after a few copies and is
  // reclaimed there by the concurrent-cycle analog; the young copy path then
  // handles the recent-survivor volume a write cache of heap/32 is sized for.
  h.tenure_age = 3;
  h.heap_device = device;
  h.eden_on_dram = eden_on_dram;
  const BenchContext* ctx = CurrentBenchContext();
  if (ctx != nullptr && ctx->has_heap_mb()) {
    // Scale every region count by the requested heap size (64 KiB regions →
    // 16 regions per MiB) so eden and the DRAM cache keep their proportions.
    const double factor = static_cast<double>(ctx->heap_mb()) * 16.0 /
                          static_cast<double>(h.heap_regions);
    h.heap_regions = static_cast<uint32_t>(ctx->heap_mb()) * 16;
    h.eden_regions = std::max<uint32_t>(1, static_cast<uint32_t>(h.eden_regions * factor));
    h.dram_cache_regions =
        std::max<uint32_t>(1, static_cast<uint32_t>(h.dram_cache_regions * factor));
  }
  return h;
}

GcOptions MakeGcOptions(GcVariant variant, uint32_t threads, CollectorKind collector) {
  switch (variant) {
    case GcVariant::kVanilla:
      return VanillaOptions(collector, threads);
    case GcVariant::kWriteCache:
      return WriteCacheOptions(collector, threads);
    case GcVariant::kAll:
      return AllOptimizationsOptions(collector, threads);
    case GcVariant::kAllAsync:
      return GcOptionsBuilder(AllOptimizationsOptions(collector, threads)).AsyncFlush().Build();
  }
  return VanillaOptions(collector, threads);
}

double BenchScale() {
  if (g_scale < 0.0) {
    const char* env = std::getenv("NVMGC_BENCH_SCALE");
    const double v = env != nullptr ? std::atof(env) : 1.0;
    g_scale = v > 0.0 ? v : 1.0;
  }
  return g_scale;
}

void SetBenchScale(double scale) { g_scale = scale > 0.0 ? scale : 1.0; }

int BenchRepetitions() {
  if (g_reps == 0) {
    const char* env = std::getenv("NVMGC_BENCH_REPS");
    const int v = env != nullptr ? std::atoi(env) : 2;
    g_reps = v >= 1 ? v : 1;
  }
  return g_reps;
}

void SetBenchRepetitions(int reps) { g_reps = reps >= 1 ? reps : 1; }

WorkloadProfile ScaledProfile(WorkloadProfile profile) {
  const double scale = BenchScale();
  if (scale > 0.0 && scale != 1.0) {
    profile.total_allocation_bytes =
        static_cast<size_t>(static_cast<double>(profile.total_allocation_bytes) * scale);
  }
  return profile;
}

WorkloadResult RunSingle(const WorkloadProfile& profile, const HeapConfig& heap,
                         const GcOptions& gc) {
  BenchContext* ctx = CurrentBenchContext();
  if (ctx == nullptr || (!ctx->observing() && !ctx->flight_recording())) {
    return RunWorkload(ScaledProfile(profile), heap, gc);
  }
  VmOptions options;
  options.heap = heap;
  options.gc = gc;
  options.trace_gc = ctx->tracing();
  BenchRunRecord record;
  record.workload = profile.name;
  record.config = {{"collector", CollectorKindName(gc.collector)},
                   {"device", DeviceKindShortName(heap.heap_device)},
                   {"threads", std::to_string(gc.gc_threads)},
                   {"options", GcOptionsTag(gc)}};
  record.label = profile.name + "/" + GcOptionsTag(gc) + "/" +
                 DeviceKindShortName(heap.heap_device) + "/" +
                 CollectorKindName(gc.collector) + "/t" + std::to_string(gc.gc_threads);
  ApplyFlightRecorder(*ctx, record.label, &options);
  WorkloadResult result = RunWorkload(ScaledProfile(profile), options, [&](Vm& vm) {
    record.pauses = vm.metrics().pauses();
    record.counters = vm.metrics().counters();
    record.gauges = vm.metrics().gauges();
    record.histograms = vm.metrics().Summaries();
    if (ctx->timeline_enabled()) {
      record.timeline = vm.timeline().samples();
    }
    ctx->AppendTrace(vm.tracer(), record.label);
    if (ctx->flight_recording()) {
      // End-of-run explicit dump: every flight-recorded label ships at least
      // one incident file even when no anomaly trigger fired.
      vm.DumpFlightRecord();
    }
  });
  record.result = result;
  ctx->RecordRun(std::move(record));
  return result;
}

WorkloadResult RunOnce(const WorkloadProfile& profile, DeviceKind device, GcVariant variant,
                       uint32_t threads, CollectorKind collector, bool eden_on_dram) {
  BenchContext* ctx = CurrentBenchContext();
  const int reps = BenchRepetitions();
  const HeapConfig heap = DefaultHeap(device, eden_on_dram);
  const GcOptions gc = MakeGcOptions(variant, threads, collector);

  BenchRunRecord record;
  record.workload = profile.name;
  record.reps = reps;
  record.config = {{"variant", GcVariantName(variant)},
                   {"device", DeviceKindShortName(device)},
                   {"collector", CollectorKindName(collector)},
                   {"threads", std::to_string(threads)},
                   {"eden_on_dram", eden_on_dram ? "true" : "false"}};
  record.label = profile.name + std::string("/") + GcVariantName(variant) + "/" +
                 DeviceKindShortName(device) + (eden_on_dram ? "-young-dram" : "") + "/" +
                 CollectorKindName(collector) + "/t" + std::to_string(threads);

  WorkloadResult avg;
  double bw_sum = 0.0;
  bool observed = false;
  for (int rep = 0; rep < reps; ++rep) {
    WorkloadProfile p = profile;
    p.seed = profile.seed + static_cast<uint64_t>(rep) * 7919;
    WorkloadResult r;
    if (rep == 0 && ctx != nullptr && (ctx->observing() || ctx->flight_recording())) {
      // Observe the first repetition only: repetitions differ only in seed,
      // and one pause-by-pause record per data point keeps artifacts small.
      VmOptions options;
      options.heap = heap;
      options.gc = gc;
      options.trace_gc = ctx->tracing();
      ApplyFlightRecorder(*ctx, record.label, &options);
      r = RunWorkload(ScaledProfile(p), options, [&](Vm& vm) {
        record.pauses = vm.metrics().pauses();
        record.counters = vm.metrics().counters();
        record.gauges = vm.metrics().gauges();
        record.histograms = vm.metrics().Summaries();
        if (ctx->timeline_enabled()) {
          record.timeline = vm.timeline().samples();
        }
        ctx->AppendTrace(vm.tracer(), record.label);
        if (ctx->flight_recording()) {
          // End-of-run explicit dump: every flight-recorded label ships at
          // least one incident file even without an anomaly trigger.
          vm.DumpFlightRecord();
        }
      });
      observed = true;
    } else {
      r = RunWorkload(ScaledProfile(p), heap, gc);
    }
    avg.name = r.name;
    avg.total_ns += r.total_ns;
    avg.gc_ns += r.gc_ns;
    avg.app_ns += r.app_ns;
    avg.gc_count += r.gc_count;
    avg.bytes_allocated += r.bytes_allocated;
    bw_sum += r.gc_bandwidth_mbps;
  }
  avg.total_ns /= reps;
  avg.gc_ns /= reps;
  avg.app_ns /= reps;
  avg.gc_count /= reps;
  avg.bytes_allocated /= reps;
  avg.gc_bandwidth_mbps = bw_sum / reps;
  if (observed) {
    record.result = avg;
    ctx->RecordRun(std::move(record));
  }
  return avg;
}

void HarvestVm(Vm& vm, uint64_t bytes_allocated, BenchRunRecord* record) {
  record->result.name = record->workload;
  record->result.total_ns = vm.now_ns();
  record->result.gc_ns = vm.gc_time_ns();
  record->result.app_ns = vm.app_time_ns();
  record->result.gc_count = vm.gc_count();
  record->result.bytes_allocated = bytes_allocated;
  record->result.gc_bandwidth_mbps = GcBandwidthMbps(vm.gc_stats());
  BenchContext* ctx = CurrentBenchContext();
  if (ctx == nullptr) {
    return;
  }
  if (ctx->observing()) {
    record->pauses = vm.metrics().pauses();
    record->counters = vm.metrics().counters();
    record->gauges = vm.metrics().gauges();
    record->histograms = vm.metrics().Summaries();
    if (ctx->timeline_enabled()) {
      record->timeline = vm.timeline().samples();
    }
    ctx->AppendTrace(vm.tracer(), record->label);
  }
  if (ctx->flight_recording()) {
    // Every flight-recorded run ships at least one incident file, even when
    // no anomaly trigger fired.
    vm.DumpFlightRecord();
  }
}

double BandwidthSeries::Mbps(uint64_t bytes) const {
  // 1 MB/s == 1e6 bytes / 1e9 ns.
  return static_cast<double>(bytes) * 1000.0 / bin_ns;
}

BandwidthSeries RecordedBandwidthSeries(Vm& vm) {
  constexpr size_t kEpochsPerBin = BandwidthSeries::kEpochsPerBin;
  BandwidthSeries series;
  MemoryDevice& device = vm.heap_device();
  series.bin_ns = kEpochsPerBin * device.ledger().bucket_ns();
  const std::vector<DeviceCounters> epochs = device.RecordedSeries();
  series.bins.resize((epochs.size() + kEpochsPerBin - 1) / kEpochsPerBin);
  for (size_t i = 0; i < epochs.size(); ++i) {
    series.bins[i / kEpochsPerBin] += epochs[i];
  }
  series.in_gc.resize(series.bins.size());
  for (size_t i = 0; i < series.bins.size(); ++i) {
    const uint64_t t0 = i * series.bin_ns;
    for (const GcCycleStats& c : vm.gc_stats().cycles()) {
      if (c.start_ns < t0 + series.bin_ns && c.start_ns + c.pause_ns > t0) {
        series.in_gc[i] = true;
        break;
      }
    }
    const double total = series.Mbps(series.bins[i].total_bytes());
    if (series.in_gc[i]) {
      series.gc_total_mbps += total;
      ++series.gc_bins;
    } else if (total > 1.0) {
      series.app_total_mbps += total;
      ++series.app_bins;
    }
  }
  return series;
}

WorkloadResult RunObserved(const std::string& label,
                           const std::map<std::string, std::string>& config,
                           const VmOptions& options, const WorkloadProfile& profile, int reps,
                           const RepetitionFn& run, const ExtrasFn& extras) {
  BenchContext* ctx = CurrentBenchContext();
  const bool observing = ctx != nullptr && (ctx->observing() || ctx->flight_recording());
  WorkloadResult mean;
  mean.name = profile.name;
  for (int rep = 0; rep < reps; ++rep) {
    const bool observed = observing && rep == 0;
    VmOptions rep_options = options;
    rep_options.trace_gc = observed && ctx->tracing();
    if (!observed) {
      rep_options.flight_recorder.dump_dir.clear();
    } else if (rep_options.flight_recorder.dump_dir.empty()) {
      ApplyFlightRecorder(*ctx, label, &rep_options);
    }
    WorkloadProfile p = ScaledProfile(profile);
    p.seed = profile.seed + static_cast<uint64_t>(rep) * 7919;
    Vm vm(rep_options);
    const uint64_t bytes_allocated = run ? run(vm, p) : SyntheticApp(&vm, p).Run().bytes_allocated;
    mean.total_ns += vm.now_ns();
    mean.gc_ns += vm.gc_time_ns();
    mean.app_ns += vm.app_time_ns();
    mean.gc_count += vm.gc_count();
    mean.bytes_allocated += bytes_allocated;
    mean.gc_bandwidth_mbps += GcBandwidthMbps(vm.gc_stats());
    if (observed) {
      BenchRunRecord record;
      record.label = label;
      record.workload = profile.name;
      record.config = config;
      HarvestVm(vm, bytes_allocated, &record);
      if (extras) {
        extras(vm, &record.extra);
      }
      ctx->RecordRun(std::move(record));
    }
  }
  mean.total_ns /= reps;
  mean.gc_ns /= reps;
  mean.app_ns /= reps;
  mean.gc_count /= reps;
  mean.bytes_allocated /= reps;
  mean.gc_bandwidth_mbps /= reps;
  return mean;
}

}  // namespace nvmgc
