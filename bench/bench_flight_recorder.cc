// Flight-recorder overhead: the always-on recorder + allocation-site
// profiler must not perturb the simulation.
//
// Each app runs twice on the vanilla G1 / NVM configuration: once with the
// flight recorder disabled and once with it enabled (the default). Both
// recorder and site profiler are host-side bookkeeping — they never touch the
// simulated devices — so the simulated total time must agree within 3%
// (in practice: exactly, the bench enforces the bound itself and exits
// nonzero past it). Wall-clock cost of the bookkeeping is reported in the
// per-run "extra" scalars for the artifact readers.
//
// Under --flight-record=DIR the recorder-on runs also dump incident files
// (one explicit end-of-run dump always; anomaly-triggered dumps when
// --fr-threshold-ns seeds a pause-threshold trigger), which CI feeds to
// scripts/fr_analyze.py --validate.

#include <chrono>
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

struct Point {
  WorkloadResult result;
  uint64_t incidents = 0;
  double wall_ms = 0.0;
};

Point RunPoint(BenchContext& ctx, const WorkloadProfile& profile, uint32_t threads,
               bool fr_on) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = MakeGcOptions(GcVariant::kVanilla, threads);
  options.flight_recorder.enabled = fr_on;
  if (fr_on) {
    if (ctx.fr_threshold_ns() > 0) {
      options.flight_recorder.pause_threshold_ns = ctx.fr_threshold_ns();
    }
    if (ctx.flight_recording()) {
      // App names are filesystem-safe; a per-label subdirectory keeps the
      // per-recorder incident sequence numbers from colliding.
      options.flight_recorder.dump_dir = ctx.flight_record_dir() + "/" + profile.name;
    }
  }

  Point point;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto run = [&](Vm& vm, const WorkloadProfile& p) {
    point.result = SyntheticApp(&vm, p).Run();
    // Host cost of building the Vm and running the workload, the recorder's
    // per-pause bookkeeping included.
    point.wall_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();
    return point.result.bytes_allocated;
  };
  // Only an observed run has a dump directory, so only it writes incidents;
  // the count includes the end-of-run dump.
  const auto extras = [&](Vm& vm, std::map<std::string, double>* extra) {
    point.incidents = vm.flight_recorder().incidents();
    (*extra)["wall_ms"] = point.wall_ms;
    (*extra)["incidents"] = static_cast<double>(point.incidents);
  };
  RunObserved(profile.name + (fr_on ? "/fr-on" : "/fr-off") + "/nvm/g1/t" +
                  std::to_string(threads),
              {{"variant", "vanilla"},
               {"device", "nvm"},
               {"collector", "g1"},
               {"threads", std::to_string(threads)},
               {"recorder", fr_on ? "on" : "off"}},
              options, profile, /*reps=*/1, run, extras);
  return point;
}

int Main(BenchContext& ctx) {
  const uint32_t kGcThreads = ctx.threads(8);
  const std::vector<std::string> apps = {"page-rank", "movie-lens", "scala-stm-bench7"};
  constexpr double kMaxSimRatio = 1.03;  // The PR's acceptance bound.

  std::printf("=== Flight recorder overhead: recorder off vs on (vanilla G1/NVM, %u GC threads) ===\n\n",
              kGcThreads);
  TablePrinter table({"app", "total-off (s)", "total-on (s)", "sim ratio", "wall-off (ms)",
                      "wall-on (ms)", "incidents"});
  bool within_bound = true;
  for (const auto& app : apps) {
    const WorkloadProfile profile = RenaissanceProfile(app);
    const Point off = RunPoint(ctx, profile, kGcThreads, false);
    const Point on = RunPoint(ctx, profile, kGcThreads, true);
    const double ratio = static_cast<double>(on.result.total_ns) /
                         static_cast<double>(off.result.total_ns);
    within_bound &= ratio <= kMaxSimRatio;
    table.AddRow({app, FormatDouble(off.result.total_seconds(), 3),
                  FormatDouble(on.result.total_seconds(), 3), FormatDouble(ratio, 4) + "x",
                  FormatDouble(off.wall_ms, 1), FormatDouble(on.wall_ms, 1),
                  std::to_string(on.incidents)});
  }
  table.Print();
  std::printf("\nsimulated-time ratio bound %.2fx: %s\n", kMaxSimRatio,
              within_bound ? "OK (recorder is host-side only)" : "EXCEEDED");
  return within_bound ? 0 : 1;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(flight_recorder)
