// Figure 3: bandwidth statistics for the als application (DRAM vs NVM).
//
// Unlike page-rank, als does not saturate NVM bandwidth outside GC: the
// consumed bandwidth during GC is *larger* than during application execution
// even on NVM, which is why its application time is barely affected by the
// move to NVM (Section 2.3).

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

// Prints the finished run's series; returns the number of bins that overlap
// a GC pause.
size_t PrintSeries(Vm& vm, const char* title) {
  const BandwidthSeries series = RecordedBandwidthSeries(vm);
  std::printf("--- %s (%.1f ms bins) ---\n", title, static_cast<double>(series.bin_ns) / 1e6);
  TablePrinter table({"t (ms)", "read (MB/s)", "write (MB/s)", "total (MB/s)", "phase"});
  const size_t stride = series.bins.size() > 40 ? series.bins.size() / 40 : 1;
  for (size_t i = 0; i < series.bins.size(); i += stride) {
    const DeviceCounters& b = series.bins[i];
    table.AddRow({FormatDouble(static_cast<double>(i * series.bin_ns) / 1e6, 1),
                  FormatDouble(series.Mbps(b.read_bytes), 0),
                  FormatDouble(series.Mbps(b.write_bytes), 0),
                  FormatDouble(series.Mbps(b.total_bytes()), 0),
                  series.in_gc[i] ? "GC" : "app"});
  }
  table.Print();
  if (series.gc_bins > 0 && series.app_bins > 0) {
    std::printf("mean total bandwidth: GC %.0f MB/s vs app %.0f MB/s\n\n",
                series.gc_total_mbps / series.gc_bins, series.app_total_mbps / series.app_bins);
  }
  return series.gc_bins;
}

// Runs als on one device and prints its series; returns the number of bins
// that overlap a GC pause.
size_t RunSeries(DeviceKind device, const char* title) {
  VmOptions options;
  options.heap = DefaultHeap(device);
  options.gc = MakeGcOptions(GcVariant::kVanilla, 20);
  size_t gc_bins = 0;
  // One run per device: a bandwidth series is not averaged.
  RunObserved(std::string("als/vanilla/") + DeviceKindShortName(device) + "/g1/t20",
              {{"device", DeviceKindShortName(device)}},
              options, RenaissanceProfile("als"), /*reps=*/1,
              [&](Vm& vm, const WorkloadProfile& p) {
                WorkloadProfile half = p;
                half.total_allocation_bytes /= 2;
                vm.heap_device().StartRecording();
                const uint64_t bytes_allocated = SyntheticApp(&vm, half).Run().bytes_allocated;
                gc_bins = PrintSeries(vm, title);
                return bytes_allocated;
              });
  return gc_bins;
}

int Main(BenchContext&) {
  std::printf("=== Figure 3: bandwidth statistics for als ===\n\n");
  const size_t dram_gc_bins = RunSeries(DeviceKind::kDram, "Figure 3a: DRAM");
  const size_t nvm_gc_bins = RunSeries(DeviceKind::kNvm, "Figure 3b: NVM");
  std::printf("expected shape: GC-phase bandwidth exceeds app-phase bandwidth on BOTH\n"
              "devices for als (its app phase leaves NVM bandwidth unsaturated).\n");
  if (dram_gc_bins == 0 || nvm_gc_bins == 0) {
    // The figure compares GC-phase with app-phase bandwidth: a run in which
    // als never collects shows neither.
    std::fprintf(stderr, "fig03: als never collected (GC bins: DRAM %zu, NVM %zu); "
                         "raise --scale\n", dram_gc_bins, nvm_gc_bins);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig03_als_bandwidth)
