// Figure 8: Cassandra tail latency vs offered throughput, optimized vs
// vanilla G1, for the cassandra-stress write-only and read-only phases.
//
// Paper result: at the highest throughput the optimizations improve p95/p99
// read latency by 5.09x/4.88x and write latency by 2.74x/2.54x, because
// shorter GC pauses shorten the worst-case queueing delay.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/runtime/vm.h"
#include "src/util/table_printer.h"
#include "src/workloads/cassandra.h"

namespace nvmgc {
namespace {

struct Curve {
  std::vector<LatencyResult> writes;
  std::vector<LatencyResult> reads;
};

void AddPhaseExtras(std::map<std::string, double>* extra, const char* phase,
                    const LatencyResult& r) {
  const std::string p(phase);
  (*extra)[p + "_p50_ms"] = r.p50_ms;
  (*extra)[p + "_p95_ms"] = r.p95_ms;
  (*extra)[p + "_p99_ms"] = r.p99_ms;
  (*extra)[p + "_mean_ms"] = r.mean_ms;
}

Curve RunCurve(GcVariant variant, uint32_t threads, const std::vector<double>& offered_kqps) {
  Curve curve;
  VmOptions options;
  options.heap = DefaultHeap(DeviceKind::kNvm);
  options.gc = MakeGcOptions(variant, threads);
  WorkloadProfile cassandra;  // Names the runs; the service seeds itself.
  cassandra.name = "cassandra";
  for (double kqps : offered_kqps) {
    const auto run = [&](Vm& vm, const WorkloadProfile&) {
      CassandraService service(&vm, CassandraConfig{});
      // cassandra-stress: a write-only phase followed by a read-only phase.
      const uint64_t requests = static_cast<uint64_t>(kqps * 1000.0);  // ~1 sim-second each.
      curve.writes.push_back(service.RunPhase(requests, kqps, 1.0));
      curve.reads.push_back(service.RunPhase(requests, kqps, 0.0));
      return service.bytes_allocated();
    };
    const auto extras = [&](Vm&, std::map<std::string, double>* extra) {
      AddPhaseExtras(extra, "write", curve.writes.back());
      AddPhaseExtras(extra, "read", curve.reads.back());
    };
    // One run per point: latency percentiles are not averaged.
    RunObserved(std::string("cassandra/") + GcVariantName(variant) + "/nvm/g1/t" +
                    std::to_string(threads) + "/" + FormatDouble(kqps, 0) + "kqps",
                {{"variant", GcVariantName(variant)},
                 {"device", "nvm"},
                 {"collector", "g1"},
                 {"threads", std::to_string(threads)},
                 {"offered_kqps", FormatDouble(kqps, 0)}},
                options, cassandra, /*reps=*/1, run, extras);
  }
  return curve;
}

void PrintPhase(const char* phase, const std::vector<double>& offered,
                const std::vector<LatencyResult>& opt, const std::vector<LatencyResult>& van) {
  std::printf("--- %s operations ---\n", phase);
  TablePrinter table({"throughput (kQPS)", "opt p50 (ms)", "opt p95 (ms)", "opt p99 (ms)",
                      "vanilla p50 (ms)", "vanilla p95 (ms)", "vanilla p99 (ms)", "p50 gain",
                      "p95 gain", "p99 gain"});
  for (size_t i = 0; i < offered.size(); ++i) {
    table.AddRow({FormatDouble(offered[i], 0), FormatDouble(opt[i].p50_ms, 2),
                  FormatDouble(opt[i].p95_ms, 2), FormatDouble(opt[i].p99_ms, 2),
                  FormatDouble(van[i].p50_ms, 2), FormatDouble(van[i].p95_ms, 2),
                  FormatDouble(van[i].p99_ms, 2),
                  FormatDouble(van[i].p50_ms / opt[i].p50_ms, 2) + "x",
                  FormatDouble(van[i].p95_ms / opt[i].p95_ms, 2) + "x",
                  FormatDouble(van[i].p99_ms / opt[i].p99_ms, 2) + "x"});
  }
  table.Print();
  std::printf("\n");
}

int Main(BenchContext& ctx) {
  const uint32_t gc_threads = ctx.threads(20);
  std::printf("=== Figure 8: Cassandra tail latency (opt vs vanilla G1, NVM heap) ===\n\n");
  const std::vector<double> offered_kqps = {30, 50, 70, 90, 110, 130};
  const Curve opt = RunCurve(GcVariant::kAll, gc_threads, offered_kqps);
  const Curve van = RunCurve(GcVariant::kVanilla, gc_threads, offered_kqps);
  PrintPhase("write", offered_kqps, opt.writes, van.writes);
  PrintPhase("read", offered_kqps, opt.reads, van.reads);
  std::printf("paper (130 kQPS): read p95/p99 gains 5.09x/4.88x, write 2.74x/2.54x\n");
  return 0;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(fig08_cassandra_latency)
