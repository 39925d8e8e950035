// Generational bench: what the DRAM young generation saves in NVM traffic.
//
// Two application phases run on the NVM heap under two configurations:
//   all — AllOptimizationsOptions: the non-generational "+all" baseline
//         (every allocation and every survivor copy touches NVM);
//   gen — GenerationalGcOptions: the same optimizations with the DRAM young
//         generation in front — objects are born in DRAM eden, age through
//         DRAM survivor space, and only tenured survivors (plus large
//         objects) ever reach NVM.
//
// The phases separate the two claims:
//   alloc-heavy    — almost everything dies young: the young generation
//                    should absorb nearly all writes, so the NVM write volume
//                    must drop by at least half (enforced, exit != 0);
//   survivor-heavy — a large live window forces real tenuring and major
//                    cycles: the major pause cost per evacuated byte must stay
//                    within 10% of the baseline's (enforced, exit != 0), i.e.
//                    paying for generational collection does not blow up
//                    full-heap collections.
// Each generational run ends with one forced major cycle so major-pause data
// exists even when old-generation pressure alone would not trigger one.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"

namespace nvmgc {
namespace {

WorkloadProfile AllocHeavyPhase() {
  WorkloadProfile p;
  p.name = "alloc-heavy";
  p.survival_fraction = 0.02;  // Weak generational hypothesis: most die young.
  p.live_window_bytes = 1 * 1024 * 1024;
  p.total_allocation_bytes = 64 * 1024 * 1024;
  p.seed = 11;
  return p;
}

WorkloadProfile SurvivorHeavyPhase() {
  WorkloadProfile p;
  p.name = "survivor-heavy";
  p.survival_fraction = 0.35;  // Heavy tenuring into the old generation.
  p.live_window_bytes = 10 * 1024 * 1024;
  p.total_allocation_bytes = 48 * 1024 * 1024;
  p.seed = 13;
  return p;
}

struct GenRunResult {
  double nvm_write_bytes = 0.0;
  double major_pause_mean_ns = 0.0;
  // Pause nanoseconds per byte evacuated — the size-independent pause cost
  // (a major moves the whole heap in one pause, so raw pause times are not
  // comparable against the baseline's young-only cycles).
  double copy_cost_ns_per_byte = 0.0;
  double major_copy_cost_ns_per_byte = 0.0;
  double bytes_promoted = 0.0;
  size_t major_count = 0;
};

GenRunResult RunConfig(const WorkloadProfile& profile, uint32_t threads, bool generational,
                       const std::string& label) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = generational ? GenerationalGcOptions(CollectorKind::kG1, threads)
                            : AllOptimizationsOptions(CollectorKind::kG1, threads);
  const int reps = BenchRepetitions();
  GenRunResult result;
  double pause_ns_sum = 0.0, major_ns_sum = 0.0;
  double copied_sum = 0.0, major_copied_sum = 0.0;
  size_t major_n = 0;
  size_t rep_majors = 0;  // The latest repetition's, read by the extras.
  const auto run = [&](Vm& vm, const WorkloadProfile& p) {
    SyntheticApp app(&vm, p);
    const uint64_t bytes_allocated = app.Run().bytes_allocated;
    if (generational) {
      // Guarantee at least one full-heap cycle per run: the major-pause
      // invariant needs data even when old-gen pressure stays low.
      vm.CollectNow(GcKind::kMajor);
    }
    const GcCycleStats totals = vm.gc_stats().Totals();
    result.nvm_write_bytes +=
        static_cast<double>(vm.heap().heap_device()->counters().write_bytes);
    result.bytes_promoted += static_cast<double>(totals.bytes_promoted);
    rep_majors = 0;
    for (const GcCycleStats& cycle : vm.gc_stats().cycles()) {
      pause_ns_sum += static_cast<double>(cycle.pause_ns);
      copied_sum += static_cast<double>(cycle.bytes_copied);
      if (cycle.is_major != 0) {
        major_ns_sum += static_cast<double>(cycle.pause_ns);
        major_copied_sum += static_cast<double>(cycle.bytes_copied);
        ++major_n;
        ++rep_majors;
      }
    }
    result.major_count += rep_majors;
    return bytes_allocated;
  };
  const auto extras = [&](Vm& vm, std::map<std::string, double>* extra) {
    const GcCycleStats totals = vm.gc_stats().Totals();
    (*extra)["nvm_write_mb"] =
        static_cast<double>(vm.heap().heap_device()->counters().write_bytes) / 1e6;
    (*extra)["bytes_promoted_mb"] = static_cast<double>(totals.bytes_promoted) / 1e6;
    (*extra)["survivor_overflow_mb"] = static_cast<double>(totals.survivor_overflow_bytes) / 1e6;
    (*extra)["major_pauses"] = static_cast<double>(rep_majors);
  };
  RunObserved(label,
              {{"config", generational ? "gen" : "all"},
               {"device", "nvm"},
               {"collector", CollectorKindName(CollectorKind::kG1)},
               {"threads", std::to_string(threads)}},
              options, profile, reps, run, extras);
  result.nvm_write_bytes /= reps;
  result.bytes_promoted /= reps;
  result.major_count /= static_cast<size_t>(reps);
  result.major_pause_mean_ns =
      major_n > 0 ? major_ns_sum / static_cast<double>(major_n) : 0.0;
  result.copy_cost_ns_per_byte = copied_sum > 0.0 ? pause_ns_sum / copied_sum : 0.0;
  result.major_copy_cost_ns_per_byte =
      major_copied_sum > 0.0 ? major_ns_sum / major_copied_sum : 0.0;
  return result;
}

int Main(BenchContext& ctx) {
  const uint32_t threads = ctx.threads(8);
  std::printf(
      "=== NVM traffic and pauses: generational DRAM young gen vs +all (NVM heap) "
      "===\n\n");
  TablePrinter table({"phase", "all NVM MB", "gen NVM MB", "reduction",
                      "all ns/B", "major ns/B", "gen major ms", "majors",
                      "promoted MB"});
  int violations = 0;
  for (const WorkloadProfile& profile : {AllocHeavyPhase(), SurvivorHeavyPhase()}) {
    const std::string base = "generational/" + profile.name + "/nvm/g1/t" +
                             std::to_string(threads);
    const GenRunResult all =
        RunConfig(profile, threads, /*generational=*/false, base + "/all");
    const GenRunResult gen =
        RunConfig(profile, threads, /*generational=*/true, base + "/gen");

    const double reduction =
        all.nvm_write_bytes > 0.0
            ? (all.nvm_write_bytes - gen.nvm_write_bytes) / all.nvm_write_bytes * 100.0
            : 0.0;
    // Invariant: with most objects dying young, the DRAM young generation
    // must absorb at least half of the NVM write volume.
    if (profile.name == "alloc-heavy" &&
        gen.nvm_write_bytes > 0.5 * all.nvm_write_bytes) {
      std::printf("VIOLATION: %s: generational NVM writes %.1f MB > 50%% of "
                  "baseline %.1f MB\n",
                  profile.name.c_str(), gen.nvm_write_bytes / 1e6,
                  all.nvm_write_bytes / 1e6);
      ++violations;
    }
    // Invariant: full-heap (major) cycles must not pay for the generational
    // split — their per-evacuated-byte pause cost stays within 10% of the
    // baseline's (a major moves far more bytes in one pause than any young
    // cycle, so raw pause times are compared per byte copied).
    if (gen.major_count > 0 && all.copy_cost_ns_per_byte > 0.0 &&
        gen.major_copy_cost_ns_per_byte > 1.10 * all.copy_cost_ns_per_byte) {
      std::printf("VIOLATION: %s: major pause cost %.2f ns/byte > 110%% of "
                  "baseline pause cost %.2f ns/byte\n",
                  profile.name.c_str(), gen.major_copy_cost_ns_per_byte,
                  all.copy_cost_ns_per_byte);
      ++violations;
    }
    if (gen.major_count == 0) {
      std::printf("VIOLATION: %s: no major cycle ran (forced major missing?)\n",
                  profile.name.c_str());
      ++violations;
    }

    table.AddRow({profile.name, FormatDouble(all.nvm_write_bytes / 1e6, 1),
                  FormatDouble(gen.nvm_write_bytes / 1e6, 1),
                  FormatDouble(reduction, 1) + "%",
                  FormatDouble(all.copy_cost_ns_per_byte, 2),
                  FormatDouble(gen.major_copy_cost_ns_per_byte, 2),
                  FormatDouble(gen.major_pause_mean_ns / 1e6, 2),
                  std::to_string(gen.major_count),
                  FormatDouble(gen.bytes_promoted / 1e6, 1)});
  }
  table.Print();
  std::printf("\nalloc-heavy gate: generational NVM writes must be <= 50%% of the "
              "non-generational baseline; major pause cost per evacuated byte "
              "within 10%% of baseline.\n");
  return violations > 0 ? 1 : 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(generational)
