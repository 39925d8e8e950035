// Figure 6: NVM bandwidth consumed during GC, optimized vs vanilla G1, for
// all 26 applications at 56 GC threads (enough to saturate the device).
//
// The paper reports a 55.0% average bandwidth improvement, larger (69.3%) for
// the Spark applications whose traversal phases are longest.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

int Main(BenchContext& ctx) {
  const uint32_t kGcThreads = ctx.threads(56);
  std::printf("=== Figure 6: NVM bandwidth during GC (G1-Opt vs G1-Vanilla, %u threads) ===\n\n",
              kGcThreads);
  TablePrinter table({"app", "vanilla (MB/s)", "optimized (MB/s)", "improvement"});
  double sum_impr = 0.0;
  int collected = 0;
  double spark_impr = 0.0;
  int spark_n = 0;
  const auto profiles = AllApplicationProfiles();
  const auto spark = SparkProfiles();
  for (const auto& profile : profiles) {
    const auto vanilla = RunOnce(profile, DeviceKind::kNvm, GcVariant::kVanilla, kGcThreads);
    const auto opt = RunOnce(profile, DeviceKind::kNvm, GcVariant::kAll, kGcThreads);
    std::string improvement_cell = "n/a";
    if (vanilla.gc_bandwidth_mbps > 0 && opt.gc_bandwidth_mbps > 0) {
      const double improvement = opt.gc_bandwidth_mbps / vanilla.gc_bandwidth_mbps - 1.0;
      sum_impr += improvement * 100.0;
      ++collected;
      for (const auto& s : spark) {
        if (s.name == profile.name) {
          spark_impr += improvement * 100.0;
          ++spark_n;
        }
      }
      improvement_cell = FormatDouble(improvement * 100.0, 1) + "%";
    }
    table.AddRow({profile.name, FormatDouble(vanilla.gc_bandwidth_mbps, 0),
                  FormatDouble(opt.gc_bandwidth_mbps, 0), improvement_cell});
  }
  table.Print();
  std::printf("\n%d of %zu apps collected in both configs (the averages cover these)\n",
              collected, profiles.size());
  std::printf("average bandwidth improvement:       %s%% (paper: 55.0%%)\n",
              FormatMean(sum_impr, collected, 1).c_str());
  std::printf("Spark-only bandwidth improvement:    %s%% (paper: 69.3%%)\n",
              FormatMean(spark_impr, spark_n, 1).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig06_gc_bandwidth)
