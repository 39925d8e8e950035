// Figure 1: application and GC time when replacing DRAM with NVM.
//
// Six applications (page-rank, kmeans from Spark; als, log-regression,
// movie-lens, scala-stm-bench7 from Renaissance) run on the vanilla G1
// collector with the heap on DRAM vs NVM. The paper reports GC pauses growing
// 2.02x-8.25x (avg 6.53x) while application time grows only ~2.68x on
// average, with movie-lens barely affected.

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
  const std::vector<std::string> apps = {"page-rank", "kmeans",     "als",
                                         "log-regression", "movie-lens", "scala-stm-bench7"};
  std::printf("=== Figure 1: app and GC time, DRAM vs NVM (vanilla G1, %u GC threads) ===\n\n",
              kGcThreads);
  TablePrinter table({"app", "app-dram (s)", "gc-dram (s)", "app-nvm (s)", "gc-nvm (s)",
                      "gc slowdown", "app slowdown", "gc share nvm"});
  double gc_slowdown_sum = 0.0;
  int collected = 0;
  double app_slowdown_sum = 0.0;
  for (const auto& app : apps) {
    const WorkloadProfile profile = RenaissanceProfile(app);
    const WorkloadResult dram = RunOnce(profile, DeviceKind::kDram, GcVariant::kVanilla,
                                        kGcThreads);
    const WorkloadResult nvm = RunOnce(profile, DeviceKind::kNvm, GcVariant::kVanilla,
                                       kGcThreads);
    const double app_slowdown = nvm.app_seconds() / dram.app_seconds();
    const double gc_share = nvm.gc_seconds() / nvm.total_seconds() * 100.0;
    app_slowdown_sum += app_slowdown;
    std::string gc_slowdown_cell = "n/a";
    if (dram.gc_seconds() > 0 && nvm.gc_seconds() > 0) {
      const double gc_slowdown = nvm.gc_seconds() / dram.gc_seconds();
      gc_slowdown_sum += gc_slowdown;
      ++collected;
      gc_slowdown_cell = FormatDouble(gc_slowdown, 2) + "x";
    }
    table.AddRow({app, FormatDouble(dram.app_seconds(), 3), FormatDouble(dram.gc_seconds(), 3),
                  FormatDouble(nvm.app_seconds(), 3), FormatDouble(nvm.gc_seconds(), 3),
                  gc_slowdown_cell, FormatDouble(app_slowdown, 2) + "x",
                  FormatDouble(gc_share, 1) + "%"});
  }
  table.Print();
  std::printf("\naverage GC slowdown DRAM->NVM:  %sx over the %d of %zu apps that collected "
              "(paper: 6.53x, range 2.02x-8.25x)\n",
              FormatMean(gc_slowdown_sum, collected, 2).c_str(), collected, apps.size());
  std::printf("average app slowdown DRAM->NVM: %.2fx (paper: ~2.68x)\n",
              app_slowdown_sum / static_cast<double>(apps.size()));
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig01_app_gc_time)
