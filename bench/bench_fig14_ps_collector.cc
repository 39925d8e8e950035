// Figure 14: the optimizations migrated to the Parallel Scavenge collector.
//
// Three configurations over the Renaissance suite: vanilla PS, "+all" without
// prefetching (PS ships with no GC prefetching), and "+all". Expected shape
// (Section 5.7): speedups from 0.61x to 2.26x — smaller than G1 on average
// because PS's irregular (non-LAB) copies bypass the write cache — and
// prefetching worth ~4.8% on average.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

double RunPs(const WorkloadProfile& profile, uint32_t threads, GcVariant variant,
             bool prefetch) {
  const GcOptions base = MakeGcOptions(variant, threads, CollectorKind::kParallelScavenge);
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = GcOptionsBuilder(base)
                   .Prefetch(prefetch)
                   .PrefetchHeaderMap(prefetch && base.use_header_map)
                   .Build();
  return RunObserved(profile.name + "/" + GcVariantName(variant) +
                         (prefetch ? "" : "-no-prefetch") + "/nvm/ps/t" +
                         std::to_string(threads),
                     {{"variant", GcVariantName(variant)},
                      {"prefetch", prefetch ? "true" : "false"}},
                     options, profile, BenchRepetitions())
      .gc_seconds();
}

int Main(BenchContext& ctx) {
  const uint32_t gc_threads = ctx.threads(20);
  std::printf("=== Figure 14: GC time for Parallel Scavenge (vanilla / no-prefetch / +all) ===\n\n");
  TablePrinter table({"app", "vanilla (s)", "+all no-prefetch (s)", "+all (s)", "speedup",
                      "prefetch gain"});
  double sum_speedup = 0.0;
  double min_speedup = 1e9;
  double max_speedup = 0.0;
  double sum_pf = 0.0;
  int n = 0;
  const auto profiles = RenaissanceProfiles();
  for (const auto& profile : profiles) {
    const double vanilla = RunPs(profile, gc_threads, GcVariant::kVanilla, /*prefetch=*/false);
    const double nopf = RunPs(profile, gc_threads, GcVariant::kAll, /*prefetch=*/false);
    const double all = RunPs(profile, gc_threads, GcVariant::kAll, /*prefetch=*/true);
    std::string speedup_cell = "n/a";
    std::string pf_cell = "n/a";
    if (vanilla > 0 && nopf > 0 && all > 0) {
      const double speedup = vanilla / all;
      const double pf_gain = (nopf - all) / nopf * 100.0;
      sum_speedup += speedup;
      min_speedup = std::min(min_speedup, speedup);
      max_speedup = std::max(max_speedup, speedup);
      sum_pf += pf_gain;
      ++n;
      speedup_cell = FormatDouble(speedup, 2) + "x";
      pf_cell = FormatDouble(pf_gain, 1) + "%";
    }
    table.AddRow({profile.name, FormatDouble(vanilla, 3), FormatDouble(nopf, 3),
                  FormatDouble(all, 3), speedup_cell, pf_cell});
  }
  table.Print();
  std::printf("\n%d of %zu apps collected in every config (the averages cover these)\n", n,
              profiles.size());
  std::printf("PS speedup: avg %sx, range %.2fx - %.2fx (paper: 0.61x - 2.26x)\n",
              FormatMean(sum_speedup, n, 2).c_str(), min_speedup, max_speedup);
  std::printf("prefetching gain: %s%% avg (paper: 4.8%%)\n", FormatMean(sum_pf, n, 1).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig14_ps_collector)
