// Durability bench: what crash consistency costs per pause.
//
// For each application profile the same workload runs twice on the NVM heap:
//   off — AllOptimizationsOptions: the non-durable "+all" configuration;
//   on  — DurableOptions: the same configuration with durability mode, i.e.
//         persisted write-back (flush per drained run, fence per batch) plus
//         the durable-last commit record sealed at the end of every pause.
//
// The interesting outputs are the GC-time overhead of durability and the
// persist counters (flush lines, fences, redo entries, commit bytes) that
// break the overhead down. Two invariants are enforced (exit != 0):
//   - durability off reports exactly zero persist work (the mode is free when
//     disabled);
//   - durability on seals one commit per pause and reports nonzero persist
//     work whenever a pause ran.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"

namespace nvmgc {
namespace {

struct DurabilityRunResult {
  double gc_seconds = 0.0;
  double persist_seconds = 0.0;
  double flush_lines = 0.0;
  double fences = 0.0;
  double commit_bytes = 0.0;
  size_t gc_count = 0;
  size_t commits_sealed = 0;
};

DurabilityRunResult RunConfig(const WorkloadProfile& profile, uint32_t threads, bool durable,
                              const std::string& label) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = durable ? DurableOptions(CollectorKind::kG1, threads)
                       : AllOptimizationsOptions(CollectorKind::kG1, threads);
  const int reps = BenchRepetitions();
  DurabilityRunResult result;
  const auto run = [&](Vm& vm, const WorkloadProfile& p) {
    const uint64_t bytes_allocated = SyntheticApp(&vm, p).Run().bytes_allocated;
    const GcCycleStats totals = vm.gc_stats().Totals();
    result.gc_seconds += static_cast<double>(vm.gc_time_ns()) / 1e9;
    result.persist_seconds += static_cast<double>(totals.persist_ns) / 1e9;
    result.flush_lines += static_cast<double>(totals.persist_flush_lines);
    result.fences += static_cast<double>(totals.persist_fences);
    result.commit_bytes += static_cast<double>(totals.persist_commit_bytes);
    result.commits_sealed += vm.collector().commit_instants().size();
    return bytes_allocated;
  };
  const auto extras = [](Vm& vm, std::map<std::string, double>* extra) {
    const GcCycleStats totals = vm.gc_stats().Totals();
    (*extra)["persist_ms"] = static_cast<double>(totals.persist_ns) / 1e6;
    (*extra)["persist_fences"] = static_cast<double>(totals.persist_fences);
    (*extra)["commits_sealed"] = static_cast<double>(vm.collector().commit_instants().size());
  };
  result.gc_count = RunObserved(label,
                                {{"config", durable ? "durable" : "all"},
                                 {"device", "nvm"},
                                 {"collector", CollectorKindName(CollectorKind::kG1)},
                                 {"threads", std::to_string(threads)}},
                                options, profile, reps, run, extras)
                        .gc_count;
  result.gc_seconds /= reps;
  result.persist_seconds /= reps;
  result.flush_lines /= reps;
  result.fences /= reps;
  result.commit_bytes /= reps;
  result.commits_sealed /= static_cast<size_t>(reps);
  return result;
}

int Main(BenchContext& ctx) {
  const uint32_t threads = ctx.threads(8);
  std::printf("=== GC cost of durability mode (durable vs non-durable, NVM heap) ===\n\n");
  TablePrinter table({"app", "off (s)", "on (s)", "overhead", "persist (ms)",
                      "flush lines", "fences", "commit KiB"});
  int violations = 0;
  double overhead_sum = 0.0;
  int n = 0;
  for (const auto& profile : AllApplicationProfiles()) {
    const std::string base = "durability/" + std::string(profile.name) + "/nvm/g1/t" +
                             std::to_string(threads);
    const DurabilityRunResult off =
        RunConfig(profile, threads, /*durable=*/false, base + "/off");
    const DurabilityRunResult on =
        RunConfig(profile, threads, /*durable=*/true, base + "/on");

    // Invariant: the mode is free when disabled.
    if (off.persist_seconds != 0.0 || off.flush_lines != 0.0 || off.fences != 0.0 ||
        off.commit_bytes != 0.0 || off.commits_sealed != 0) {
      std::printf("VIOLATION: %s reported persist work with durability off\n",
                  profile.name.c_str());
      ++violations;
    }
    // Invariant: one sealed commit per pause, and pauses actually persist.
    if (on.commits_sealed != on.gc_count ||
        (on.gc_count > 0 && (on.fences == 0.0 || on.commit_bytes == 0.0))) {
      std::printf("VIOLATION: %s sealed %zu commits over %zu pauses (fences=%.0f)\n",
                  profile.name.c_str(), on.commits_sealed, on.gc_count, on.fences);
      ++violations;
    }

    std::string overhead_cell = "n/a";  // Short runs may see no GC cycle.
    if (off.gc_seconds > 0.0) {
      const double overhead = (on.gc_seconds - off.gc_seconds) / off.gc_seconds * 100.0;
      overhead_cell = FormatDouble(overhead, 1) + "%";
      overhead_sum += overhead;
      ++n;
    }
    table.AddRow({profile.name, FormatDouble(off.gc_seconds, 3),
                  FormatDouble(on.gc_seconds, 3), overhead_cell,
                  FormatDouble(on.persist_seconds * 1e3, 2),
                  FormatDouble(on.flush_lines, 0), FormatDouble(on.fences, 0),
                  FormatDouble(on.commit_bytes / 1024.0, 1)});
  }
  table.Print();
  if (n > 0) {
    std::printf("\nmean GC-time overhead of durability: %.1f%%\n", overhead_sum / n);
  }
  return violations > 0 ? 1 : 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(durability)
