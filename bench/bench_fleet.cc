// Multi-tenant fleet bench: three tenants sharing one simulated Optane
// device — a Cassandra-style serving tenant (QoS serving), a Spark-style
// batch-analytics tenant (QoS batch), and a Renaissance-style synthetic
// churner (QoS background) — run twice: uncoordinated (no arbitration, no
// pause scheduling: every tenant fends for itself on the shared device) and
// coordinated (BandwidthArbiter budget enforcement + fleet pause staggering).
//
// Reported per tenant and mode: simulated runtime, GC time/count, serving op
// latency percentiles, batch task throughput, and the arbiter's throttling
// totals. The bench enforces the fleet manager's acceptance bars itself and
// exits nonzero when they do not hold:
//
//   * coordinated serving p99 must beat the uncoordinated baseline by at
//     least kMinServingP99Gain;
//   * coordinated batch throughput must stay within kMinBatchThroughputRatio
//     of the uncoordinated baseline (QoS must not starve the batch tier).
//
// Under --json each tenant x mode pair is one labeled run (gated against
// this bench's runs in BENCH_baseline.json by CI); under --trace each tenant
// becomes its own Chrome-trace process, so Perfetto shows the fleet's
// pause/bandwidth interleaving per Vm. --flight-record points every tenant's recorder at one
// shared directory: the per-tenant incident tags keep the dumps collision-free.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_runner.h"
#include "src/fleet/fleet_manager.h"
#include "src/fleet/qos.h"
#include "src/fleet/tenant_workload.h"
#include "src/util/table_printer.h"

namespace nvmgc {
namespace {

// Acceptance bars (see header comment).
constexpr double kMinServingP99Gain = 1.05;        // >= 5% p99 improvement.
constexpr double kMinBatchThroughputRatio = 0.70;  // Batch keeps >= 70%.

struct TenantPoint {
  std::string name;
  BenchRunRecord record;
  HistogramSummary latency;  // Serving tenant only.
  double tasks_per_s = 0.0;  // Batch tenant only.
  uint64_t throttle_windows = 0;
  uint64_t stall_ns = 0;
};

struct FleetPoint {
  std::vector<TenantPoint> tenants;  // serving, batch, background.
  uint64_t pauses_deferred = 0;
  uint64_t pause_defer_ns = 0;
};

FleetPoint RunFleet(BenchContext& ctx, bool coordinated, uint32_t threads) {
  const std::string mode = coordinated ? "coordinated" : "uncoordinated";
  FleetOptions options;
  options.arbitration = coordinated;
  options.pause_coordination = coordinated;

  FleetManager fleet(options);

  VmOptions vm_base;
  vm_base.heap = DefaultHeap(DeviceKind::kNvm);
  vm_base.gc = MakeGcOptions(GcVariant::kAll, threads);
  vm_base.trace_gc = ctx.tracing();
  if (ctx.flight_recording()) {
    // One shared incident directory for the whole fleet: the per-tenant
    // incident tags (incident-<tenant>-<seq>.json) keep dumps from colliding.
    vm_base.flight_recorder.dump_dir = ctx.flight_record_dir() + "/fleet-" + mode;
  }

  FleetTenantSpec serving_spec;
  serving_spec.name = "serving";
  serving_spec.tier = QosTier::kServing;
  serving_spec.bandwidth_budget_mbps = 800.0;
  serving_spec.vm = vm_base;
  // A latency tenant is provisioned so steady-state serving fits in eden:
  // its tail must come from device contention (what the arbiter manages),
  // not from self-inflicted evacuation pauses that dwarf request latencies.
  serving_spec.vm.heap.eden_regions = 512;  // 32 MiB.
  FleetTenantSpec batch_spec;
  batch_spec.name = "batch";
  batch_spec.tier = QosTier::kBatch;
  batch_spec.bandwidth_budget_mbps = 400.0;
  batch_spec.vm = vm_base;
  FleetTenantSpec background_spec;
  background_spec.name = "background";
  background_spec.tier = QosTier::kBackground;
  background_spec.bandwidth_budget_mbps = 150.0;
  background_spec.vm = vm_base;

  const uint32_t s = fleet.AddTenant(serving_spec);
  const uint32_t b = fleet.AddTenant(batch_spec);
  const uint32_t g = fleet.AddTenant(background_spec);

  const double scale = BenchScale();
  ServingConfig sc;
  sc.total_requests = static_cast<uint64_t>(40000 * scale);
  auto serving_driver = std::make_unique<ServingDriver>(&fleet.vm(s), sc);
  ServingDriver* serving = serving_driver.get();

  // Batch and background volumes are sized to keep both co-tenants busy for
  // the serving tenant's whole run — the contention window must cover the
  // serving pauses and tail, or the modes trivially tie.
  BatchConfig bc;
  bc.total_tasks = static_cast<uint64_t>(1200 * scale);
  auto batch_driver = std::make_unique<BatchDriver>(&fleet.vm(b), bc);
  BatchDriver* batch = batch_driver.get();

  BackgroundConfig gc_cfg;
  gc_cfg.total_allocation_bytes = static_cast<size_t>(480.0 * 1024 * 1024 * scale);
  auto background_driver = std::make_unique<BackgroundDriver>(&fleet.vm(g), gc_cfg);
  BackgroundDriver* background = background_driver.get();

  fleet.SetDriver(s, std::move(serving_driver));
  fleet.SetDriver(b, std::move(batch_driver));
  fleet.SetDriver(g, std::move(background_driver));
  fleet.Run();

  // Exact, seed-deterministic application allocation volume per tenant
  // (tables + per-op allocations), so the regression gate can pin it tightly.
  const uint64_t serving_alloc =
      (sc.rows + serving->served()) * sc.row_bytes + serving->served() * 48;
  const uint64_t batch_alloc =
      bc.rows * bc.row_bytes + batch->tasks_done() * bc.intermediate_bytes;

  FleetPoint point;
  point.pauses_deferred = fleet.pauses_deferred();
  point.pause_defer_ns = fleet.pause_scheduler().total_defer_ns();
  for (uint32_t id : {s, b, g}) {
    Vm& vm = fleet.vm(id);
    TenantPoint t;
    t.name = fleet.tenant_name(id);
    t.throttle_windows = fleet.arbiter().stats(id).windows_throttled;
    t.stall_ns = fleet.arbiter().stats(id).total_stall_ns;

    BenchRunRecord& r = t.record;
    r.workload = "fleet-" + t.name;
    r.label = "fleet/" + t.name + "/" + mode + "/nvm/t" + std::to_string(threads);
    r.config = {{"mode", mode},
                {"tier", QosTierName(fleet.tenant_tier(id))},
                {"budget_mbps", FormatDouble(fleet.arbiter().budget_mbps(id), 0)},
                {"device", "nvm"},
                {"collector", "g1"},
                {"threads", std::to_string(threads)}};
    r.result.name = r.label;
    r.result.total_ns = vm.now_ns();
    r.result.gc_ns = vm.gc_time_ns();
    r.result.app_ns = vm.app_time_ns();
    r.result.gc_count = vm.gc_count();
    r.result.bytes_allocated = id == s   ? serving_alloc
                               : id == b ? batch_alloc
                                         : background->allocated_bytes();
    const GcCycleStats totals = vm.gc_stats().Totals();
    const uint64_t gc_device_bytes = totals.device_read_bytes + totals.device_write_bytes;
    r.result.gc_bandwidth_mbps =
        vm.gc_time_ns() > 0
            ? static_cast<double>(gc_device_bytes) * 1000.0 / static_cast<double>(vm.gc_time_ns())
            : 0.0;

    r.extra["throttle_windows"] = static_cast<double>(t.throttle_windows);
    r.extra["stall_ms"] = static_cast<double>(t.stall_ns) / 1e6;
    r.extra["device_bytes"] =
        static_cast<double>(fleet.device().tenant_counters(static_cast<uint8_t>(id)).total_bytes());
    if (id == s) {
      t.latency = serving->LatencySummary();
      r.extra["p50_us"] = static_cast<double>(t.latency.p50) / 1e3;
      r.extra["p95_us"] = static_cast<double>(t.latency.p95) / 1e3;
      r.extra["p99_us"] = static_cast<double>(t.latency.p99) / 1e3;
      r.extra["mean_us"] = t.latency.mean / 1e3;
      r.extra["fleet_pauses_deferred"] = static_cast<double>(point.pauses_deferred);
      r.extra["fleet_pause_defer_ms"] = static_cast<double>(point.pause_defer_ns) / 1e6;
    } else if (id == b) {
      t.tasks_per_s = batch->TasksPerSecond();
      r.extra["tasks_per_s"] = t.tasks_per_s;
    } else {
      r.extra["alloc_mb"] = static_cast<double>(background->allocated_bytes()) / (1024.0 * 1024.0);
    }

    if (ctx.observing()) {
      r.pauses = vm.metrics().pauses();
      r.counters = vm.metrics().counters();
      r.gauges = vm.metrics().gauges();
      r.histograms = vm.metrics().Summaries();
      if (ctx.timeline_enabled()) {
        r.timeline = vm.timeline().samples();
      }
      ctx.AppendTrace(vm.tracer(), r.label);
    }
    if (ctx.flight_recording()) {
      vm.DumpFlightRecord();
    }
    point.tenants.push_back(std::move(t));
  }
  return point;
}

int Main(BenchContext& ctx) {
  const uint32_t threads = ctx.threads(4);
  std::printf(
      "=== Fleet: 3 tenants, one shared Optane device — uncoordinated vs "
      "coordinated (QoS arbitration + pause staggering), %u GC threads ===\n\n",
      threads);

  FleetPoint uncoordinated = RunFleet(ctx, /*coordinated=*/false, threads);
  FleetPoint coordinated = RunFleet(ctx, /*coordinated=*/true, threads);

  TablePrinter table({"tenant", "mode", "total (ms)", "gc (ms)", "gcs", "p99 (us)",
                      "tasks/s", "throttled", "stall (ms)"});
  for (const FleetPoint* point : {&uncoordinated, &coordinated}) {
    for (const TenantPoint& t : point->tenants) {
      table.AddRow({t.name, std::string(t.record.config.at("mode")),
                    FormatDouble(static_cast<double>(t.record.result.total_ns) / 1e6, 1),
                    FormatDouble(static_cast<double>(t.record.result.gc_ns) / 1e6, 1),
                    std::to_string(t.record.result.gc_count),
                    t.latency.count > 0 ? FormatDouble(static_cast<double>(t.latency.p99) / 1e3, 1)
                                        : "-",
                    t.tasks_per_s > 0 ? FormatDouble(t.tasks_per_s, 0) : "-",
                    std::to_string(t.throttle_windows),
                    FormatDouble(static_cast<double>(t.stall_ns) / 1e6, 1)});
    }
  }
  table.Print();

  const double p99_unc = static_cast<double>(uncoordinated.tenants[0].latency.p99);
  const double p99_coord = static_cast<double>(coordinated.tenants[0].latency.p99);
  const double p99_gain = p99_coord > 0 ? p99_unc / p99_coord : 0.0;
  const double batch_unc = uncoordinated.tenants[1].tasks_per_s;
  const double batch_coord = coordinated.tenants[1].tasks_per_s;
  const double batch_ratio = batch_unc > 0 ? batch_coord / batch_unc : 0.0;

  // A serving p99 measured without a single serving pause compares arrival
  // jitter only, so the verdict line shows how often the serving tenant
  // collected.
  const uint64_t serving_gcs_unc = uncoordinated.tenants[0].record.result.gc_count;
  const uint64_t serving_gcs_coord = coordinated.tenants[0].record.result.gc_count;

  // Cross-mode scalars ride on the coordinated records for artifact readers.
  coordinated.tenants[0].record.extra["p99_gain_vs_uncoordinated"] = p99_gain;
  coordinated.tenants[1].record.extra["throughput_ratio_vs_uncoordinated"] = batch_ratio;
  for (FleetPoint* point : {&uncoordinated, &coordinated}) {
    for (TenantPoint& t : point->tenants) {
      ctx.RecordRun(std::move(t.record));
    }
  }

  std::printf("\nserving p99: %.1f us uncoordinated -> %.1f us coordinated "
              "(%.2fx, bar >= %.2fx)\n",
              p99_unc / 1e3, p99_coord / 1e3, p99_gain, kMinServingP99Gain);
  std::printf("batch throughput: %.0f -> %.0f tasks/s (%.2fx of baseline, bar >= %.2fx)\n",
              batch_unc, batch_coord, batch_ratio, kMinBatchThroughputRatio);
  std::printf("pauses deferred (coordinated): %llu (%.2f ms total)\n",
              static_cast<unsigned long long>(coordinated.pauses_deferred),
              static_cast<double>(coordinated.pause_defer_ns) / 1e6);

  const bool p99_ok = p99_gain >= kMinServingP99Gain;
  const bool batch_ok = batch_ratio >= kMinBatchThroughputRatio;
  std::printf("\nacceptance: serving p99 %s (serving GCs: %llu uncoordinated, %llu "
              "coordinated), batch throughput %s\n",
              p99_ok ? "OK" : "FAILED", static_cast<unsigned long long>(serving_gcs_unc),
              static_cast<unsigned long long>(serving_gcs_coord), batch_ok ? "OK" : "FAILED");
  return p99_ok && batch_ok ? 0 : 1;
}

}  // namespace
}  // namespace nvmgc

NVMGC_BENCH_MAIN(bench_fleet)
