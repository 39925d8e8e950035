// Shared helpers for the figure/table reproduction benches.
//
// RunOnce / RunSingle consult the active BenchContext (bench_runner.h): when
// --json / --trace are set they run one observed repetition that harvests
// per-pause metric snapshots and GC phase traces, and record every data point
// for the machine-readable artifact writers.

#ifndef NVMGC_BENCH_BENCH_COMMON_H_
#define NVMGC_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_runner.h"
#include "src/gc/gc_options.h"
#include "src/heap/heap.h"
#include "src/nvm/bandwidth_ledger.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {

// The evaluated GC configurations of Figure 5 / 13.
enum class GcVariant {
  kVanilla,
  kWriteCache,  // "+writecache"
  kAll,         // "+all": write cache + header map + NT stores + prefetch
  kAllAsync,    // "+all" with asynchronous region flushing (Figure 11)
};

const char* GcVariantName(GcVariant variant);
const char* DeviceKindShortName(DeviceKind kind);

// Standard simulated-JVM shape used by all macro benches: 64 MiB heap in
// 64 KiB regions, 16 MiB eden (the paper's 16 GiB heap / 4 GiB young space,
// scaled 1:256 so a full figure sweep runs in seconds of wall time). The
// active BenchContext's --heap-mb scales all region counts proportionally.
HeapConfig DefaultHeap(DeviceKind device, bool eden_on_dram = false);

GcOptions MakeGcOptions(GcVariant variant, uint32_t threads,
                        CollectorKind collector = CollectorKind::kG1);

// Scales a profile's allocation volume by BenchScale().
WorkloadProfile ScaledProfile(WorkloadProfile profile);

// Runs `profile` on a fresh VM with the given settings and returns the result
// averaged over BenchRepetitions() (distinct seeds) — the paper likewise
// averages five runs per data point.
WorkloadResult RunOnce(const WorkloadProfile& profile, DeviceKind device, GcVariant variant,
                       uint32_t threads, CollectorKind collector = CollectorKind::kG1,
                       bool eden_on_dram = false);

// Single unaveraged run with explicit options (building block for sweeps).
WorkloadResult RunSingle(const WorkloadProfile& profile, const HeapConfig& heap,
                         const GcOptions& gc);

// --- The observed-run path of every bench that drives its own Vm ---
//
// Fills `record` from a finished Vm: the result times, gc_bandwidth_mbps
// (GcBandwidthMbps) and `bytes_allocated`, which only the workload knows.
// Under --json/--trace it also copies the Vm's metrics, histograms and
// --timeline samples and appends its trace as a process named by the label;
// under --flight-record it then writes one explicit end-of-run incident.
// The caller records it with BenchContext::RecordRun. RunOnce and RunSingle
// keep frozen copies of these steps.
void HarvestVm(Vm& vm, uint64_t bytes_allocated, BenchRunRecord* record);

// Drives one repetition on a fresh Vm and returns the bytes it allocated.
// `profile` is the data point's, scaled by BenchScale() and seeded for the
// repetition.
using RepetitionFn = std::function<uint64_t(Vm& vm, const WorkloadProfile& profile)>;
// Adds bench-specific scalars read from the observed repetition's Vm; runs
// after HarvestVm, so it sees the end-of-run incident too.
using ExtrasFn = std::function<void(Vm& vm, std::map<std::string, double>* extra)>;

// Runs one data point `reps` times, each on a fresh Vm built from `options`;
// repetition `rep` gets the seed `profile.seed + rep * 7919`. `run` drives
// each repetition (default: SyntheticApp over `profile`). Repetition 0 is
// the observed one: under --json, --trace or --flight-record only its Vm is
// traced and flight-recorded (in a per-label subdirectory of --flight-record
// unless `options` names a dump directory), and it alone is recorded, as
// workload `profile.name` under `label` and `config`, by HarvestVm plus
// `extras`. Returns the result times averaged over the repetitions.
WorkloadResult RunObserved(const std::string& label,
                           const std::map<std::string, std::string>& config,
                           const VmOptions& options, const WorkloadProfile& profile, int reps,
                           const RepetitionFn& run = nullptr, const ExtrasFn& extras = nullptr);

// --- Bandwidth over time (Figures 2 and 3) ---
//
// A finished Vm's heap-device series: the ledger epochs recorded since
// MemoryDevice::StartRecording, summed kEpochsPerBin at a time, each bin
// flagged when it overlaps one of the Vm's GC pauses.
struct BandwidthSeries {
  // Plot bins: whole 150 us ledger epochs, 14 of them = 2.1 ms.
  static constexpr size_t kEpochsPerBin = 14;

  uint64_t bin_ns = 0;
  std::vector<DeviceCounters> bins;
  std::vector<bool> in_gc;
  // Summed total bandwidth of the GC bins, and of the app bins that moved
  // more than 1 MB/s, with how many bins each sum covers.
  double gc_total_mbps = 0.0;
  size_t gc_bins = 0;
  double app_total_mbps = 0.0;
  size_t app_bins = 0;

  // `bytes` moved within one bin, in MB/s.
  double Mbps(uint64_t bytes) const;
};

BandwidthSeries RecordedBandwidthSeries(Vm& vm);

// Repetitions per data point: --repeat flag > NVMGC_BENCH_REPS env > 2.
int BenchRepetitions();
void SetBenchRepetitions(int reps);

// Allocation-volume scale: --scale flag > NVMGC_BENCH_SCALE env > 1.0.
double BenchScale();
void SetBenchScale(double scale);

}  // namespace nvmgc

#endif  // NVMGC_BENCH_BENCH_COMMON_H_
