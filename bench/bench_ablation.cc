// Ablation study: each optimization in isolation and in combination, plus the
// paper's stated future work — merging the optimizations with a DRAM young
// allocation space ("using DRAM for both allocation and GC", Section 5.2).
//
// This is not a paper figure; it isolates the contribution of every design
// choice DESIGN.md calls out.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

struct AblationCase {
  const char* name;
  bool write_cache = false;
  bool non_temporal = false;
  bool header_map = false;
  bool prefetch = true;   // Vanilla G1 ships with prefetch.
  bool async = false;
  bool eden_on_dram = false;
  // Start from AdaptiveOptions() and let the policy engine retune between
  // pauses (the flag fields above are ignored then).
  bool adaptive = false;
};

double RunCase(const WorkloadProfile& profile, const AblationCase& c, uint32_t threads) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm, c.eden_on_dram);
  if (c.adaptive) {
    options.gc = AdaptiveOptions(CollectorKind::kG1, threads);
  } else {
    options.gc = VanillaOptions(CollectorKind::kG1, threads);
    options.gc.use_write_cache = c.write_cache;
    options.gc.use_non_temporal = c.non_temporal;
    options.gc.use_header_map = c.header_map;
    options.gc.prefetch = c.prefetch;
    options.gc.prefetch_header_map = c.header_map && c.prefetch;
    options.gc.async_flush = c.async;
  }
  return RunObserved(profile.name + "/" + c.name + "/nvm/g1/t" + std::to_string(threads),
                     {{"case", c.name}},
                     options, profile, BenchRepetitions())
      .gc_seconds();
}

int Main(BenchContext& ctx) {
  const uint32_t gc_threads = ctx.threads(20);
  const AblationCase cases[] = {
      {"vanilla"},
      {"no-prefetch", false, false, false, false},
      {"+writecache", true},
      {"+writecache+nt", true, true},
      {"+headermap only", false, false, true},
      {"+all (sync)", true, true, true},
      {"+all (async)", true, true, true, true, true},
      {"adaptive", false, false, false, true, false, false, true},
      {"young-dram", false, false, false, true, false, true},
      {"young-dram +all (future work)", true, true, true, true, false, true},
  };
  std::printf("=== Ablation: GC time per design choice (%u GC threads, NVM heap) ===\n\n",
              gc_threads);
  for (const char* app : {"page-rank", "naive-bayes", "dotty"}) {
    const WorkloadProfile profile = RenaissanceProfile(app);
    std::printf("--- %s ---\n", app);
    TablePrinter table({"configuration", "GC time (s)", "vs vanilla"});
    double vanilla = 0.0;
    for (const AblationCase& c : cases) {
      const double seconds = RunCase(profile, c, gc_threads);
      if (std::string(c.name) == "vanilla") {
        vanilla = seconds;
      }
      // A configuration that never collected has no GC-time ratio.
      table.AddRow({c.name, FormatDouble(seconds, 3),
                    vanilla > 0 && seconds > 0 ? FormatDouble(vanilla / seconds, 2) + "x"
                                               : "n/a"});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf("The last row implements the paper's future work: DRAM serves allocation\n"
              "while the write cache + header map serve collection.\n");
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(ablation)
