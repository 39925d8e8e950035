// Ablation study: each optimization in isolation and in combination, plus the
// paper's stated future work — merging the optimizations with a DRAM young
// allocation space ("using DRAM for both allocation and GC", Section 5.2).
//
// This is not a paper figure; it isolates the contribution of every design
// choice DESIGN.md calls out.

#include <cstdio>

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
  const int reps = BenchRepetitions();
  double total = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    GcOptions gc;
    if (c.adaptive) {
      gc = AdaptiveOptions(CollectorKind::kG1, threads);
    } else {
      gc = VanillaOptions(CollectorKind::kG1, threads);
      gc.use_write_cache = c.write_cache;
      gc.use_non_temporal = c.non_temporal;
      gc.use_header_map = c.header_map;
      gc.prefetch = c.prefetch;
      gc.prefetch_header_map = c.header_map && c.prefetch;
      gc.async_flush = c.async;
    }
    WorkloadProfile p = profile;
    p.seed = profile.seed + static_cast<uint64_t>(rep) * 7919;
    total += RunSingle(p, DefaultHeap(DeviceKind::kNvm, c.eden_on_dram), gc).gc_seconds();
  }
  return total / reps;
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
