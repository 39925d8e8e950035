// Figure 12: cost-efficiency analysis — GC-improvement-per-dollar.
//
// The metric is GC time reduction (seconds) per extra dollar spent over the
// all-NVM baseline. The optimizations add a little DRAM (write cache + header
// map); the alternative buys enough DRAM for the whole heap. Per-GB prices
// follow the paper: DRAM $7.81/GB, NVM $3.01/GB. Expected shape: direct DRAM
// wins on raw time but loses on improvement-per-dollar for most applications
// (9.58x average advantage for the optimizations on Spark).

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/nvm/device_profile.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

int Main(BenchContext& ctx) {
  const uint32_t kGcThreads = ctx.threads(20);
  const HeapConfig heap = DefaultHeap(DeviceKind::kNvm);
  const double gb = 1024.0 * 1024.0 * 1024.0;
  const double heap_gb = static_cast<double>(heap.region_bytes * heap.heap_regions) / gb;
  // Extra DRAM used by the optimizations: write cache (heap/32) + header map
  // (heap/32).
  const double opt_dram_gb = heap_gb / 32.0 * 2.0;
  const double dram_price = MakeDramProfile().dollars_per_gb;
  const double nvm_price = MakeOptaneProfile().dollars_per_gb;
  const double opt_extra_dollars = opt_dram_gb * dram_price;
  // Replacing the NVM heap with DRAM: pay the DRAM-NVM price difference.
  const double dram_extra_dollars = heap_gb * (dram_price - nvm_price);

  std::printf("=== Figure 12: GC-improvement-per-dollar (opt vs all-DRAM) ===\n");
  std::printf("extra cost: +opt = $%.4f (DRAM staging), all-DRAM = $%.4f (price delta)\n\n",
              opt_extra_dollars, dram_extra_dollars);
  TablePrinter table({"app", "opt gain (s)", "dram gain (s)", "opt s/$", "dram s/$",
                      "opt advantage"});
  double spark_adv = 0.0;
  int spark_n = 0;
  const auto spark = SparkProfiles();
  for (const auto& profile : AllApplicationProfiles()) {
    const auto vanilla = RunOnce(profile, DeviceKind::kNvm, GcVariant::kVanilla, kGcThreads);
    const auto opt = RunOnce(profile, DeviceKind::kNvm, GcVariant::kAll, kGcThreads);
    const auto dram = RunOnce(profile, DeviceKind::kDram, GcVariant::kVanilla, kGcThreads);
    const double opt_gain = vanilla.gc_seconds() - opt.gc_seconds();
    const double dram_gain = vanilla.gc_seconds() - dram.gc_seconds();
    const double opt_per_dollar = opt_gain / opt_extra_dollars;
    const double dram_per_dollar = dram_gain / dram_extra_dollars;
    // An app that never collected gains nothing from either option: no ratio.
    std::string advantage_cell = "n/a";
    if (dram_per_dollar != 0) {
      const double advantage = opt_per_dollar / dram_per_dollar;
      for (const auto& s : spark) {
        if (s.name == profile.name) {
          spark_adv += advantage;
          ++spark_n;
        }
      }
      advantage_cell = FormatDouble(advantage, 2) + "x";
    }
    table.AddRow({profile.name, FormatDouble(opt_gain, 3), FormatDouble(dram_gain, 3),
                  FormatDouble(opt_per_dollar, 2), FormatDouble(dram_per_dollar, 2),
                  advantage_cell});
  }
  table.Print();
  std::printf("\nSpark avg GC-improvement-per-dollar advantage: %sx (paper: 9.58x)\n",
              FormatMean(spark_adv, spark_n, 2).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig12_cost_efficiency)
