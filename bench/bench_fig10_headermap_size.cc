// Figure 10: GC time with different header-map size caps.
//
// The paper evaluates 512 MB / 1 GB / 2 GB caps against a 16 GB heap, i.e.
// heap/32, heap/16 and heap/8; the same ratios are used here. Expected shape:
// larger maps help (fewer forwarding pointers spill to NVM headers), but
// Renaissance saturates at the smallest setting (~3.3% further gain) while
// Spark — whose occupancy is near 100% — gains ~21%.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

struct SizedResult {
  double gc_seconds = 0.0;
  double peak_occupancy = 0.0;  // Peak per-GC installs / capacity.
};

SizedResult RunWithHeaderMapBytes(const WorkloadProfile& profile, uint32_t threads,
                                  const char* cap_name, size_t map_bytes) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc =
      GcOptionsBuilder(MakeGcOptions(GcVariant::kAll, threads)).HeaderMapBytes(map_bytes).Build();
  SizedResult out;
  const auto run = [&](Vm& vm, const WorkloadProfile& p) {
    const uint64_t bytes_allocated = SyntheticApp(&vm, p).Run().bytes_allocated;
    const size_t capacity = vm.collector().header_map()->capacity();
    for (const auto& c : vm.gc_stats().cycles()) {
      out.peak_occupancy =
          std::max(out.peak_occupancy,
                   static_cast<double>(c.header_map_installs) / static_cast<double>(capacity));
    }
    return bytes_allocated;
  };
  out.gc_seconds = RunObserved(profile.name + "/hm-" + cap_name + "/nvm/g1/t" +
                                   std::to_string(threads),
                               {{"header_map", cap_name}},
                               options, profile, BenchRepetitions(), run)
                       .gc_seconds();
  return out;
}

int Main(BenchContext& ctx) {
  const uint32_t gc_threads = ctx.threads(20);
  const size_t heap_bytes = DefaultHeap(DeviceKind::kNvm).region_bytes *
                            DefaultHeap(DeviceKind::kNvm).heap_regions;
  // The paper's 512M/1G/2G caps are sized so that Spark saturates the small
  // setting (its occupancy is "close to 100%", Section 5.5). Our simulated
  // heap has a lower object density, so the three points are scaled to match
  // *occupancy*, not byte ratio: the smallest cap overflows for Spark-style
  // survivor floods while comfortably holding the Renaissance apps.
  const size_t cap32 = heap_bytes / 256;  // "512M" (occupancy-matched).
  const size_t cap16 = heap_bytes / 64;   // "1G"
  const size_t cap8 = heap_bytes / 16;    // "2G"
  std::printf(
      "=== Figure 10: GC time vs header-map size (occupancy-matched 512M/1G/2G) ===\n\n");
  TablePrinter table({"app", "512M-eq (s)", "1G-eq (s)", "2G-eq (s)", "gain small->large",
                      "occupancy@2G-eq"});
  double ren_gain = 0.0;
  int ren_n = 0;
  double spark_gain = 0.0;
  int spark_n = 0;
  const auto spark = SparkProfiles();
  for (const auto& profile : AllApplicationProfiles()) {
    const SizedResult small = RunWithHeaderMapBytes(profile, gc_threads, "512M-eq", cap32);
    const SizedResult mid = RunWithHeaderMapBytes(profile, gc_threads, "1G-eq", cap16);
    const SizedResult big = RunWithHeaderMapBytes(profile, gc_threads, "2G-eq", cap8);
    std::string gain_cell = "n/a";
    if (small.gc_seconds > 0) {
      const double gain = (small.gc_seconds - big.gc_seconds) / small.gc_seconds * 100.0;
      bool is_spark = false;
      for (const auto& s : spark) {
        if (s.name == profile.name) {
          is_spark = true;
        }
      }
      if (is_spark) {
        spark_gain += gain;
        ++spark_n;
      } else {
        ren_gain += gain;
        ++ren_n;
      }
      gain_cell = FormatDouble(gain, 1) + "%";
    }
    table.AddRow({profile.name, FormatDouble(small.gc_seconds, 3), FormatDouble(mid.gc_seconds, 3),
                  FormatDouble(big.gc_seconds, 3), gain_cell,
                  FormatDouble(big.peak_occupancy * 100.0, 0) + "%"});
  }
  table.Print();
  std::printf("\n%d of %zu apps collected (the averages cover these)\n", ren_n + spark_n,
              AllApplicationProfiles().size());
  std::printf("Renaissance avg gain from 4x larger map: %s%% (paper: 3.3%%)\n",
              FormatMean(ren_gain, ren_n, 1).c_str());
  std::printf("Spark avg gain from 4x larger map:       %s%% (paper: 21.1%%)\n",
              FormatMean(spark_gain, spark_n, 1).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig10_headermap_size)
