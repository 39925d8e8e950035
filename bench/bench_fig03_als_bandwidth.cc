// Figure 3: bandwidth statistics for the als application (DRAM vs NVM).
//
// Unlike page-rank, als does not saturate NVM bandwidth outside GC: the
// consumed bandwidth during GC is *larger* than during application execution
// even on NVM, which is why its application time is barely affected by the
// move to NVM (Section 2.3).

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

// Plot bins: whole 150 us ledger epochs, 14 of them = 2.1 ms.
constexpr size_t kEpochsPerBin = 14;

// The recorded per-epoch series summed into kEpochsPerBin-epoch bins.
std::vector<DeviceCounters> BinnedSeries(const MemoryDevice& device) {
  const std::vector<DeviceCounters> epochs = device.RecordedSeries();
  std::vector<DeviceCounters> bins((epochs.size() + kEpochsPerBin - 1) / kEpochsPerBin);
  for (size_t i = 0; i < epochs.size(); ++i) {
    bins[i / kEpochsPerBin] += epochs[i];
  }
  return bins;
}

// Prints the finished run's series; returns the number of bins that overlap
// a GC pause.
size_t PrintSeries(Vm& vm, const char* title) {
  std::vector<std::pair<uint64_t, uint64_t>> pauses;
  for (const auto& c : vm.gc_stats().cycles()) {
    pauses.emplace_back(c.start_ns, c.start_ns + c.pause_ns);
  }
  const std::vector<DeviceCounters> bins = BinnedSeries(vm.heap_device());
  const uint64_t bin_ns = kEpochsPerBin * vm.heap_device().ledger().bucket_ns();
  // 1 MB/s == 1e6 bytes / 1e9 ns.
  auto mbps = [bin_ns](uint64_t bytes) { return static_cast<double>(bytes) * 1000.0 / bin_ns; };
  double gc_total = 0.0;
  double app_total = 0.0;
  size_t gc_n = 0;
  size_t app_n = 0;
  std::printf("--- %s (%.1f ms bins) ---\n", title, static_cast<double>(bin_ns) / 1e6);
  TablePrinter table({"t (ms)", "read (MB/s)", "write (MB/s)", "total (MB/s)", "phase"});
  const size_t stride = bins.size() > 40 ? bins.size() / 40 : 1;
  for (size_t i = 0; i < bins.size(); ++i) {
    const DeviceCounters& b = bins[i];
    const uint64_t t0 = i * bin_ns;
    bool in_gc = false;
    for (const auto& [start, end] : pauses) {
      if (start < t0 + bin_ns && end > t0) {
        in_gc = true;
        break;
      }
    }
    const double total = mbps(b.total_bytes());
    if (i % stride == 0) {
      table.AddRow({FormatDouble(static_cast<double>(t0) / 1e6, 1),
                    FormatDouble(mbps(b.read_bytes), 0), FormatDouble(mbps(b.write_bytes), 0),
                    FormatDouble(total, 0), in_gc ? "GC" : "app"});
    }
    if (in_gc) {
      gc_total += total;
      ++gc_n;
    } else if (total > 1.0) {
      app_total += total;
      ++app_n;
    }
  }
  table.Print();
  if (gc_n > 0 && app_n > 0) {
    std::printf("mean total bandwidth: GC %.0f MB/s vs app %.0f MB/s\n\n", gc_total / gc_n,
                app_total / app_n);
  }
  return gc_n;
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
