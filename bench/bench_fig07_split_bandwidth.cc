// Figure 7: read/write NVM bandwidth during one GC pause, optimized vs
// vanilla, for page-rank, naive-bayes, and akka-uct.
//
// Expected shapes (Section 5.3):
//   * optimized runs show a read-mostly sub-phase (write bandwidth near zero)
//     followed by a short write-only burst whose write bandwidth approaches
//     the non-temporal ceiling;
//   * vanilla runs mix reads and writes throughout at a much lower total;
//   * naive-bayes reaches the highest read bandwidth (sequential primitive
//     array copies); akka-uct stays moderate due to load imbalance.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

void PrintLongestPause(const Vm& vm, const std::string& app, GcVariant variant) {
  // Pick the longest pause and print the bandwidth inside it.
  const GcCycleStats* longest = nullptr;
  for (const auto& c : vm.gc_stats().cycles()) {
    if (longest == nullptr || c.pause_ns > longest->pause_ns) {
      longest = &c;
    }
  }
  std::printf("--- %s (%s): longest pause %.1f ms ---\n", app.c_str(), GcVariantName(variant),
              longest != nullptr ? static_cast<double>(longest->pause_ns) / 1e6 : 0.0);
  if (longest == nullptr) {
    return;
  }
  // The Vm's timeline holds each pause's 150 us ledger buckets, each tagged
  // with its phase (read-mostly copy, then write-back).
  std::vector<TimelineSample> samples;
  for (const TimelineSample& s : vm.timeline().samples()) {
    if (s.time_ns >= longest->start_ns && s.time_ns < longest->start_ns + longest->pause_ns) {
      samples.push_back(s);
    }
  }
  TablePrinter table({"t in pause (ms)", "phase", "read (MB/s)", "write (MB/s)"});
  double peak_write = 0.0;
  double peak_read = 0.0;
  const size_t stride = (samples.size() + 39) / 40;  // At most 40 rows.
  for (size_t i = 0; i < samples.size(); ++i) {
    const TimelineSample& s = samples[i];
    peak_write = std::max(peak_write, s.write_mbps);
    peak_read = std::max(peak_read, s.read_mbps);
    if (i % stride == 0) {
      table.AddRow({FormatDouble(static_cast<double>(s.time_ns - longest->start_ns) / 1e6, 2),
                    GcPhaseKindName(s.phase), FormatDouble(s.read_mbps, 0),
                    FormatDouble(s.write_mbps, 0)});
    }
  }
  table.Print();
  std::printf("peak read %.0f MB/s, peak write %.0f MB/s\n\n", peak_read, peak_write);
}

void RunCase(const std::string& app, GcVariant variant) {
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = MakeGcOptions(variant, 20);
  // One run per case: the figure shows a single pause, not an average.
  RunObserved(app + "/" + GcVariantName(variant) + "/nvm/g1/t20",
              {{"variant", GcVariantName(variant)}},
              options, RenaissanceProfile(app), /*reps=*/1,
              [&](Vm& vm, const WorkloadProfile& p) {
                const uint64_t bytes_allocated = SyntheticApp(&vm, p).Run().bytes_allocated;
                PrintLongestPause(vm, app, variant);
                return bytes_allocated;
              });
}

int Main(BenchContext&) {
  std::printf("=== Figure 7: split NVM bandwidth during GC ===\n\n");
  for (const char* app : {"page-rank", "naive-bayes", "akka-uct"}) {
    RunCase(app, GcVariant::kAll);
    RunCase(app, GcVariant::kVanilla);
  }
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig07_split_bandwidth)
