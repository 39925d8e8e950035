// Figure 2: bandwidth statistics for the page-rank application.
//
//   (a)/(b) consumed read/write bandwidth over time on DRAM vs NVM, with GC
//           intervals marked — on DRAM total bandwidth *rises* during GC,
//           on NVM it *collapses* because GC writes destroy the mixed-workload
//           bandwidth.
//   (c)/(d) average bandwidth during GC and accumulated GC time versus the
//           number of GC threads — NVM saturates around 8 threads while DRAM
//           keeps scaling.

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

void PrintSeries(Vm& vm, const char* title) {
  const BandwidthSeries series = RecordedBandwidthSeries(vm);
  std::printf("--- %s: bandwidth over time (%.1f ms bins) ---\n", title,
              static_cast<double>(series.bin_ns) / 1e6);
  TablePrinter table({"t (ms)", "read (MB/s)", "write (MB/s)", "total (MB/s)", "phase"});
  const size_t stride = series.bins.size() > 48 ? series.bins.size() / 48 : 1;
  for (size_t i = 0; i < series.bins.size(); i += stride) {
    const DeviceCounters& b = series.bins[i];
    table.AddRow({FormatDouble(static_cast<double>(i * series.bin_ns) / 1e6, 1),
                  FormatDouble(series.Mbps(b.read_bytes), 0),
                  FormatDouble(series.Mbps(b.write_bytes), 0),
                  FormatDouble(series.Mbps(b.total_bytes()), 0),
                  series.in_gc[i] ? "GC" : "app"});
  }
  table.Print();

  // Summary: bandwidth inside vs outside GC.
  if (series.gc_bins > 0 && series.app_bins > 0) {
    const double gc_mean = series.gc_total_mbps / series.gc_bins;
    const double app_mean = series.app_total_mbps / series.app_bins;
    std::printf("mean total bandwidth: GC %.0f MB/s vs app %.0f MB/s (%s)\n\n", gc_mean,
                app_mean, gc_mean > app_mean ? "GC raises bandwidth" : "GC collapses bandwidth");
  }
}

void RunSeries(DeviceKind device, const char* title) {
  VmOptions options;
  options.heap = DefaultHeap(device);
  options.gc = MakeGcOptions(GcVariant::kVanilla, 20);
  // One run per device: a bandwidth series is not averaged. RunScalability's
  // t20 point runs the same configuration at full volume.
  RunObserved(std::string("page-rank/vanilla/") + DeviceKindShortName(device) + "/g1/t20/series",
              {{"device", DeviceKindShortName(device)}},
              options, RenaissanceProfile("page-rank"), /*reps=*/1,
              [&](Vm& vm, const WorkloadProfile& p) {
                WorkloadProfile half = p;
                half.total_allocation_bytes /= 2;  // A shorter trace keeps the plot readable.
                vm.heap_device().StartRecording();
                const uint64_t bytes_allocated = SyntheticApp(&vm, half).Run().bytes_allocated;
                PrintSeries(vm, title);
                return bytes_allocated;
              });
}

void RunScalability(DeviceKind device, const char* title) {
  std::printf("--- %s: bandwidth and GC time vs GC threads ---\n", title);
  TablePrinter table({"threads", "avg GC bandwidth (MB/s)", "accumulated GC time (s)"});
  for (uint32_t threads : {1u, 2u, 4u, 8u, 16u, 20u, 28u, 40u, 56u}) {
    const WorkloadResult r =
        RunOnce(RenaissanceProfile("page-rank"), device, GcVariant::kVanilla, threads);
    table.AddRow({std::to_string(threads), FormatDouble(r.gc_bandwidth_mbps, 0),
                  FormatDouble(r.gc_seconds(), 3)});
  }
  table.Print();
  std::printf("\n");
}

int Main(BenchContext&) {
  std::printf("=== Figure 2: bandwidth statistics for page-rank ===\n\n");
  RunSeries(DeviceKind::kDram, "Figure 2a: DRAM");
  RunSeries(DeviceKind::kNvm, "Figure 2b: NVM");
  RunScalability(DeviceKind::kNvm, "Figure 2c: NVM");
  RunScalability(DeviceKind::kDram, "Figure 2d: DRAM");
  std::printf("expected shape: NVM bandwidth and GC time flatten beyond ~8 threads;\n"
              "DRAM keeps scaling (paper Section 2.3).\n");
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig02_pagerank_bandwidth)
