// Adaptive-policy bench: a phase-shifting workload where no single static
// configuration is right for the whole run.
//
// One VM runs three back-to-back phases on the NVM heap:
//   1. alloc-heavy    — high allocation rate, almost nothing survives: pauses
//                       are cheap, a big write cache is wasted DRAM;
//   2. survivor-heavy — a large live window with high survival: heavy copying
//                       wants the full cache, the header map, async flushing;
//   3. steal-heavy    — one deep chain dominates: load imbalance drives work
//                       stealing, which taints async region readiness.
//
// Static configurations keep one setting across all three phases; the
// adaptive configuration starts from AdaptiveOptions() and lets the policy
// engine retune between pauses. Acceptance (checked here, exit code != 0 on
// violation):
//   - per phase, adaptive GC time is within 10% of the best static config;
//   - end-to-end, adaptive beats the worst static config by at least 20%.

#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/policy/policy_engine.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

constexpr size_t kPhaseCount = 3;
const char* const kPhaseNames[kPhaseCount] = {"alloc-heavy", "survivor-heavy",
                                              "steal-heavy"};

WorkloadProfile PhaseProfile(size_t phase, uint64_t seed) {
  WorkloadProfile p;
  p.name = kPhaseNames[phase];
  p.seed = seed + phase * 101;
  p.total_allocation_bytes = 48 * 1024 * 1024;
  switch (phase) {
    case 0:  // Alloc-heavy: churn with a tiny survivor stream.
      p.survival_fraction = 0.02;
      p.live_window_bytes = 1 * 1024 * 1024;
      p.reads_per_alloc = 0.2;
      p.writes_per_alloc = 0.1;
      break;
    case 1:  // Survivor-heavy: a large, hot live window.
      p.survival_fraction = 0.35;
      p.live_window_bytes = 10 * 1024 * 1024;
      p.small_object_fraction = 0.7;
      break;
    default:  // Steal-heavy: most survivors feed one deep chain.
      p.survival_fraction = 0.15;
      p.live_window_bytes = 6 * 1024 * 1024;
      p.chain_fraction = 0.85;
      break;
  }
  return p;
}

struct BenchConfig {
  const char* name;
  GcOptions gc;
  bool adaptive = false;
};

struct ConfigResult {
  std::array<uint64_t, kPhaseCount> phase_gc_ns{};
  uint64_t total_gc_ns = 0;
  size_t gc_count = 0;
  size_t decisions = 0;
  uint64_t retreats = 0;
};

// Runs all three phases on one VM per repetition and returns the per-phase
// GC-time deltas averaged over the repetitions.
ConfigResult RunPhases(const BenchConfig& config, const std::string& label) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = config.gc;
  WorkloadProfile phase_shift;  // Names the runs and seeds PhaseProfile.
  phase_shift.name = "phase-shift";
  const int reps = BenchRepetitions();
  ConfigResult avg;
  ConfigResult r;  // The latest repetition's, read by the extras.
  const auto run = [&](Vm& vm, const WorkloadProfile& seeded) {
    r = ConfigResult();
    uint64_t bytes_allocated = 0;
    for (size_t phase = 0; phase < kPhaseCount; ++phase) {
      const uint64_t gc_before = vm.gc_time_ns();
      bytes_allocated += SyntheticApp(&vm, ScaledProfile(PhaseProfile(phase, seeded.seed)))
                             .Run()
                             .bytes_allocated;
      r.phase_gc_ns[phase] = vm.gc_time_ns() - gc_before;
      avg.phase_gc_ns[phase] += r.phase_gc_ns[phase];
    }
    if (vm.policy() != nullptr) {
      r.decisions = vm.policy()->decisions().size();
      r.retreats = vm.policy()->retreats();
    }
    avg.decisions += r.decisions;
    avg.retreats += r.retreats;
    return bytes_allocated;
  };
  const auto extras = [&](Vm&, std::map<std::string, double>* extra) {
    for (size_t phase = 0; phase < kPhaseCount; ++phase) {
      (*extra)[std::string(kPhaseNames[phase]) + "_gc_ms"] =
          static_cast<double>(r.phase_gc_ns[phase]) / 1e6;
    }
    (*extra)["policy_decisions"] = static_cast<double>(r.decisions);
    (*extra)["policy_retreats"] = static_cast<double>(r.retreats);
  };
  const WorkloadResult mean =
      RunObserved(label,
                  {{"config", config.name},
                   {"device", "nvm"},
                   {"collector", CollectorKindName(config.gc.collector)},
                   {"threads", std::to_string(config.gc.gc_threads)}},
                  options, phase_shift, reps, run, extras);
  for (size_t p = 0; p < kPhaseCount; ++p) {
    avg.phase_gc_ns[p] /= reps;
  }
  avg.total_gc_ns = mean.gc_ns;
  avg.gc_count = mean.gc_count;
  avg.decisions /= reps;
  avg.retreats /= static_cast<uint64_t>(reps);
  return avg;
}

int Main(BenchContext& ctx) {
  const uint32_t threads = ctx.threads(8);
  const CollectorKind collector = ctx.collector(CollectorKind::kG1);

  std::vector<BenchConfig> configs;
  configs.push_back({"vanilla", VanillaOptions(collector, threads)});
  {
    // All optimizations but a deliberately small, synchronously flushed cache:
    // fine for the alloc-heavy phase, starved in the survivor-heavy one.
    GcOptions gc = AllOptimizationsOptions(collector, threads);
    gc.write_cache_bytes = 512 * 1024;
    configs.push_back({"small-cache-sync", gc});
  }
  configs.push_back(
      {"all-async",
       GcOptionsBuilder(AllOptimizationsOptions(collector, threads)).AsyncFlush().Build()});
  configs.push_back({"adaptive", AdaptiveOptions(collector, threads), /*adaptive=*/true});

  std::printf("=== Adaptive policy vs static configurations "
              "(phase-shifting workload, %u GC threads, NVM heap) ===\n\n",
              threads);

  std::vector<ConfigResult> results;
  for (const BenchConfig& config : configs) {
    results.push_back(RunPhases(config, "phase-shift/" + std::string(config.name) + "/nvm/" +
                                            CollectorKindName(collector) + "/t" +
                                            std::to_string(threads)));
  }

  TablePrinter table({"configuration", "alloc (ms)", "survivor (ms)", "steal (ms)",
                      "GC total (ms)", "GCs", "decisions"});
  for (size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& r = results[i];
    table.AddRow({configs[i].name,
                  FormatDouble(static_cast<double>(r.phase_gc_ns[0]) / 1e6, 2),
                  FormatDouble(static_cast<double>(r.phase_gc_ns[1]) / 1e6, 2),
                  FormatDouble(static_cast<double>(r.phase_gc_ns[2]) / 1e6, 2),
                  FormatDouble(static_cast<double>(r.total_gc_ns) / 1e6, 2),
                  std::to_string(r.gc_count),
                  configs[i].adaptive ? std::to_string(r.decisions) : "-"});
  }
  table.Print();

  // --- Acceptance ---
  // Sanitizer instrumentation perturbs host thread scheduling, which shifts
  // work-steal counts and therefore the simulated steal-taint costs; the
  // performance bars are only meaningful in uninstrumented builds, so there
  // violations are reported but not enforced.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kEnforceAcceptance = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  constexpr bool kEnforceAcceptance = false;
#else
  constexpr bool kEnforceAcceptance = true;
#endif
#else
  constexpr bool kEnforceAcceptance = true;
#endif
  const ConfigResult& adaptive = results.back();
  int violations = 0;
  std::printf("\nAcceptance:\n");
  for (size_t p = 0; p < kPhaseCount; ++p) {
    uint64_t best = UINT64_MAX;
    for (size_t i = 0; i + 1 < configs.size(); ++i) {
      best = std::min(best, results[i].phase_gc_ns[p]);
    }
    // A phase no static config collected in (small --scale runs) has no
    // ratio: it passes when the adaptive config did not collect either.
    const uint64_t got = adaptive.phase_gc_ns[p];
    const double ratio = best == 0 ? 0.0 : static_cast<double>(got) / static_cast<double>(best);
    const bool ok = best == 0 ? got == 0 : ratio <= 1.10;
    std::printf("  %-14s adaptive/best-static = %s (<= 1.10) %s\n", kPhaseNames[p],
                best == 0 ? "n/a" : FormatDouble(ratio, 3).c_str(), ok ? "OK" : "VIOLATION");
    violations += ok ? 0 : 1;
  }
  uint64_t worst = 0;
  for (size_t i = 0; i + 1 < configs.size(); ++i) {
    worst = std::max(worst, results[i].total_gc_ns);
  }
  const double end_to_end = static_cast<double>(adaptive.total_gc_ns) /
                            static_cast<double>(worst);
  const bool e2e_ok = end_to_end <= 0.80;
  std::printf("  end-to-end     adaptive/worst-static = %.3f (<= 0.80) %s\n", end_to_end,
              e2e_ok ? "OK" : "VIOLATION");
  violations += e2e_ok ? 0 : 1;
  std::printf("  policy: %zu decisions, %llu retreats over %zu GCs\n", adaptive.decisions,
              static_cast<unsigned long long>(adaptive.retreats), adaptive.gc_count);
  if (!kEnforceAcceptance && violations > 0) {
    std::printf("  (sanitizer build: %d violation(s) reported, not enforced)\n", violations);
  }
  return (kEnforceAcceptance && violations > 0) ? 1 : 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(adaptive_policy)
