// Figure 11: GC time under different write-cache settings:
//   sync            — default bounded cache (heap/32), flushed at pause end;
//   sync-unlimited  — no capacity bound;
//   async           — asynchronous region flushing (non-temporal stores);
//   dram            — the whole heap on DRAM, as the reference floor.
//
// Expected shape (Section 5.5): most applications gain nothing from an
// unlimited cache (heap/32 suffices); the exceptions are page-rank and kmeans
// with their floods of small surviving objects. Async flushing costs ~6.9% on
// average while reclaiming DRAM early.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

double RunVariantGcSeconds(const WorkloadProfile& profile, uint32_t threads, bool unlimited,
                           bool async, DeviceKind device) {
  const char* setting = device == DeviceKind::kDram ? "dram"
                        : async                     ? "async"
                        : unlimited                 ? "sync-unlimited"
                                                    : "sync";
  VmOptions options;
  options.heap = DefaultHeap(device);
  options.gc = GcOptionsBuilder(MakeGcOptions(GcVariant::kAll, threads))
                   .UnlimitedWriteCache(unlimited)
                   .AsyncFlush(async)
                   .Build();
  if (device == DeviceKind::kDram) {
    options.gc = MakeGcOptions(GcVariant::kVanilla, threads);
  }
  return RunObserved(profile.name + "/" + setting + "/g1/t" + std::to_string(threads),
                     {{"setting", setting}},
                     options, profile, BenchRepetitions())
      .gc_seconds();
}

int Main(BenchContext& ctx) {
  const uint32_t gc_threads = ctx.threads(20);
  std::printf("=== Figure 11: GC time with different write-cache settings ===\n\n");
  TablePrinter table({"app", "sync (s)", "sync-unlimited (s)", "async (s)", "dram (s)",
                      "async slowdown"});
  double async_slowdown_sum = 0.0;
  int n = 0;
  for (const auto& profile : AllApplicationProfiles()) {
    const double sync = RunVariantGcSeconds(profile, gc_threads, false, false, DeviceKind::kNvm);
    const double unlimited = RunVariantGcSeconds(profile, gc_threads, true, false, DeviceKind::kNvm);
    const double async = RunVariantGcSeconds(profile, gc_threads, false, true, DeviceKind::kNvm);
    const double dram = RunVariantGcSeconds(profile, gc_threads, false, false, DeviceKind::kDram);
    std::string slowdown_cell = "n/a";
    if (sync > 0) {
      const double async_slowdown = (async - sync) / sync * 100.0;
      async_slowdown_sum += async_slowdown;
      ++n;
      slowdown_cell = FormatDouble(async_slowdown, 1) + "%";
    }
    table.AddRow({profile.name, FormatDouble(sync, 3), FormatDouble(unlimited, 3),
                  FormatDouble(async, 3), FormatDouble(dram, 3), slowdown_cell});
  }
  table.Print();
  std::printf("\n%d of %zu apps collected (the average covers these)\n", n,
              AllApplicationProfiles().size());
  std::printf("average async-flush slowdown vs sync: %s%% (paper: 6.9%%)\n",
              FormatMean(async_slowdown_sum, n, 1).c_str());
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig11_writecache)
