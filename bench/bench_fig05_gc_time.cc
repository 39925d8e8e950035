// Figure 5: GC time for all 26 applications under five configurations:
//   vanilla (NVM) / +writecache / +all / vanilla-dram / young-gen-dram.
//
// Paper results this should reproduce in shape: 23 of 26 applications improve;
// +all reduces GC time 1.69x on average (up to 2.69x); the write cache alone
// gives 1.17x on average (up to 2.08x); the DRAM:NVM GC gap shrinks from
// 4.21x to 2.28x; young-gen-dram beats the optimizations for most apps.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

int Main(BenchContext& ctx) {
  const uint32_t kGcThreads = ctx.threads(20);
  const CollectorKind collector = ctx.collector(CollectorKind::kG1);
  std::printf("=== Figure 5: GC time per application and configuration (%u GC threads) ===\n\n",
              kGcThreads);
  TablePrinter table({"app", "vanilla (s)", "+writecache (s)", "+all (s)", "vanilla-dram (s)",
                      "young-gen-dram (s)", "+all speedup", "+wc speedup"});
  double sum_all = 0.0;
  double sum_wc = 0.0;
  double max_all = 0.0;
  double max_wc = 0.0;
  double sum_gap_vanilla = 0.0;
  double sum_gap_opt = 0.0;
  int improved = 0;
  int collected = 0;
  const auto profiles = AllApplicationProfiles();
  for (const auto& profile : profiles) {
    const auto vanilla = RunOnce(profile, DeviceKind::kNvm, GcVariant::kVanilla, kGcThreads, collector);
    const auto wc = RunOnce(profile, DeviceKind::kNvm, GcVariant::kWriteCache, kGcThreads, collector);
    const auto all = RunOnce(profile, DeviceKind::kNvm, GcVariant::kAll, kGcThreads, collector);
    const auto dram = RunOnce(profile, DeviceKind::kDram, GcVariant::kVanilla, kGcThreads, collector);
    const auto young_dram = RunOnce(profile, DeviceKind::kNvm, GcVariant::kVanilla, kGcThreads,
                                    collector, /*eden_on_dram=*/true);
    std::string all_cell = "n/a";
    std::string wc_cell = "n/a";
    if (vanilla.gc_seconds() > 0 && wc.gc_seconds() > 0 && all.gc_seconds() > 0 &&
        dram.gc_seconds() > 0) {
      const double speedup_all = vanilla.gc_seconds() / all.gc_seconds();
      const double speedup_wc = vanilla.gc_seconds() / wc.gc_seconds();
      sum_all += speedup_all;
      sum_wc += speedup_wc;
      max_all = std::max(max_all, speedup_all);
      max_wc = std::max(max_wc, speedup_wc);
      sum_gap_vanilla += vanilla.gc_seconds() / dram.gc_seconds();
      sum_gap_opt += all.gc_seconds() / dram.gc_seconds();
      if (speedup_all > 1.02) {
        ++improved;
      }
      ++collected;
      all_cell = FormatDouble(speedup_all, 2) + "x";
      wc_cell = FormatDouble(speedup_wc, 2) + "x";
    }
    table.AddRow({profile.name, FormatDouble(vanilla.gc_seconds(), 3),
                  FormatDouble(wc.gc_seconds(), 3), FormatDouble(all.gc_seconds(), 3),
                  FormatDouble(dram.gc_seconds(), 3), FormatDouble(young_dram.gc_seconds(), 3),
                  all_cell, wc_cell});
  }
  table.Print();
  std::printf("\n%d of %zu apps collected in every config (the averages cover these)\n",
              collected, profiles.size());
  std::printf("apps improved by +all:            %d of %d (paper: 23 of 26)\n", improved,
              collected);
  std::printf("+all GC speedup:                  avg %sx, max %.2fx (paper: 1.69x avg, 2.69x max)\n",
              FormatMean(sum_all, collected, 2).c_str(), max_all);
  std::printf("+writecache GC speedup:           avg %sx, max %.2fx (paper: 1.17x avg, 2.08x max)\n",
              FormatMean(sum_wc, collected, 2).c_str(), max_wc);
  std::printf("DRAM:NVM GC gap vanilla -> +all:  %sx -> %sx (paper: 4.21x -> 2.28x)\n",
              FormatMean(sum_gap_vanilla, collected, 2).c_str(),
              FormatMean(sum_gap_opt, collected, 2).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig05_gc_time)
