// One pass of one benchmark-suite workload (see README.md in this directory).
//
//   bench_suite --workload NAME [--seed N] [--scale X] [--trace-out PATH]
//               [--setup-only]
//
// A pass builds fresh Vms, drives the workload through the library's public
// entry points (SyntheticApp::Run, CassandraService::RunPhase,
// FleetManager::Run), verifies every heap outside the timed region, and
// prints one JSON object on its last stdout line: every metric the pass can
// compute (simulated, host and per-layer) plus the correctness checks it ran.
// run_suite.py repeats passes, takes medians and owns the metric contract.
//
// Host time is split into setup (Vm construction and table preload), run
// (the workload call only) and verify. With --trace-out the pass also turns
// on the program's GC tracer and records the suite's own host-time spans
// (setup / run / verify, and one gc.collect per pause from a pass-through
// GcCoordinator) into one Chrome trace file.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/fleet/fleet_manager.h"
#include "src/fleet/tenant_workload.h"
#include "src/heap/heap_verifier.h"
#include "src/runtime/gc_coordinator.h"
#include "src/runtime/vm.h"
#include "src/workloads/cassandra.h"
#include "src/workloads/renaissance.h"
#include "src/workloads/synthetic_app.h"

namespace nvmgc {
namespace {

using SteadyClock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

// 8 simulated GC threads is the paper's header_map_min_threads, so the write
// cache, header map, NT stores and prefetch are all active on pagerank-all.
constexpr uint32_t kGcThreads = 8;
// The fleet keeps bench_fleet's thread count: at 4 the header map stays off.
constexpr uint32_t kFleetGcThreads = 4;

// Run lengths, fixed by allocation or request volume (never by a timer) and
// sized so every workload has at least ten pauses beyond its p90 pause;
// --scale multiplies every volume (the smoke test runs at 0.05).
constexpr double kPagerankMiB = 1600.0;
constexpr double kCassandraRates[] = {50, 70, 90, 110, 130};  // kQPS.
constexpr double kCassandraPhaseSimS = 5.0;  // Per phase (write-only, then read-only).
constexpr double kFleetScale = 15.0;         // Multiple of bench_fleet's volumes.

// A rate meets the SLO when its read p99 and its end-of-phase backlog are
// both within this limit.
constexpr double kSloMs = 1.0;

// SplitMix64 finaliser: derives the per-component seeds from --seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Host-time spans of the suite itself, written beside the Vm tracers' events.
class HostTrace {
 public:
  explicit HostTrace(SteadyClock::time_point origin) : origin_(origin) {}

  void Add(const char* name, SteadyClock::time_point start, SteadyClock::time_point end) {
    spans_.push_back({name, Micros(start), Micros(end) - Micros(start)});
  }

  // Chrome-trace events: the suite's spans as process 1, each Vm's simulated
  // GC events (appended by the caller) as the following processes.
  std::string ChromeEvents() const {
    std::string out =
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"bench_suite (host time)\"}}";
    char buf[256];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                    "\"ts\":%.3f,\"dur\":%.3f}",
                    s.name, s.ts_us, s.dur_us);
      out += buf;
    }
    return out;
  }

 private:
  struct Span {
    const char* name;
    double ts_us;
    double dur_us;
  };

  double Micros(SteadyClock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  SteadyClock::time_point origin_;
  std::vector<Span> spans_;
};

// Pass-through pause hook: forwards to `next` (the fleet manager, or nothing
// on a single-Vm workload, which then defers 0 ns) and records the host time
// of every pause as a gc.collect span.
class HostPauseRecorder : public GcCoordinator {
 public:
  HostPauseRecorder(HostTrace* trace, GcCoordinator* next) : trace_(trace), next_(next) {}

  uint64_t OnPauseRequested(uint32_t tenant, GcKind kind, uint64_t now_ns) override {
    start_ = SteadyClock::now();
    return next_ != nullptr ? next_->OnPauseRequested(tenant, kind, now_ns) : 0;
  }

  void OnPauseFinished(uint32_t tenant, GcKind kind, uint64_t start_ns, uint64_t end_ns,
                       uint64_t writeback_ns) override {
    if (next_ != nullptr) {
      next_->OnPauseFinished(tenant, kind, start_ns, end_ns, writeback_ns);
    }
    const SteadyClock::time_point end = SteadyClock::now();
    trace_->Add("gc.collect", start_, end);
    gc_host_s_ += std::chrono::duration<double>(end - start_).count();
  }

  double gc_host_s() const { return gc_host_s_; }

 private:
  HostTrace* trace_;
  GcCoordinator* next_;
  SteadyClock::time_point start_;
  double gc_host_s_ = 0.0;
};

struct PassOptions {
  std::string workload;
  uint64_t seed = 1;
  double scale = 1.0;
  std::string trace_out;  // Empty: untraced pass.
  // Set up every Vm (and preload its tables) but run nothing: run_suite.py
  // takes setup_s as the median of several such passes.
  bool setup_only = false;
};

void AddCounters(const DeviceCounters& c, DeviceCounters* sum) {
  sum->read_bytes += c.read_bytes;
  sum->write_bytes += c.write_bytes;
  sum->nt_write_bytes += c.nt_write_bytes;
  sum->read_ops += c.read_ops;
  sum->write_ops += c.write_ops;
}

// Everything one pass measures, pooled over all of its Vms.
class Pass {
 public:
  explicit Pass(const PassOptions& options)
      : options_(options), origin_(SteadyClock::now()), trace_(origin_) {}

  bool traced() const { return !options_.trace_out.empty(); }
  bool setup_only() const { return options_.setup_only; }
  double scale() const { return options_.scale; }
  uint64_t seed(uint64_t salt) const { return MixSeed(options_.seed, salt); }

  VmOptions MakeVmOptions(const GcOptions& gc) const {
    VmOptions o;
    o.heap = DefaultHeap(DeviceKind::kNvm);
    o.gc = gc;
    o.trace_gc = traced();
    return o;
  }

  // Host-time phases. The returned guard records the span and its duration.
  class Phase {
   public:
    Phase(Pass* pass, const char* name, double* total)
        : pass_(pass), name_(name), total_(total), start_(SteadyClock::now()) {}
    ~Phase() {
      const SteadyClock::time_point end = SteadyClock::now();
      *total_ += std::chrono::duration<double>(end - start_).count();
      pass_->trace_.Add(name_, start_, end);
    }
    Phase(const Phase&) = delete;
    Phase& operator=(const Phase&) = delete;

   private:
    Pass* pass_;
    const char* name_;
    double* total_;
    SteadyClock::time_point start_;
  };
  Phase Setup() { return Phase(this, "setup", &setup_s_); }
  Phase Run() { return Phase(this, "run", &run_s_); }
  Phase Verify() { return Phase(this, "verify", &verify_s_); }

  // Traced passes time every pause of `vm` through the pass-through
  // recorder. `next` is the coordinator it forwards to: the fleet manager, or
  // none on single-Vm workloads, where it defers 0 ns so simulated results
  // are those of an unhooked Vm.
  void HookPauses(Vm* vm, GcCoordinator* next = nullptr) {
    if (!traced()) {
      return;
    }
    if (recorder_ == nullptr) {
      recorder_ = std::make_unique<HostPauseRecorder>(&trace_, next);
    }
    vm->set_gc_coordinator(recorder_.get());
  }

  void Check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      failures_.push_back(what);
    }
  }

  // Heap checks at the end of a Vm's run, outside the timed region.
  void VerifyVm(Vm& vm, const std::string& label) {
    Phase phase = Verify();
    HeapVerifier verifier(&vm.heap());
    std::string error;
    Check(verifier.VerifyReachable(vm.RootSlots(), &error), label + " reachable: " + error);
    error.clear();
    Check(verifier.VerifyParsability(&error), label + " parsable: " + error);
    if (vm.options().gc.generational.enabled) {
      error.clear();
      Check(verifier.VerifyRemsetCompleteness(&error), label + " remsets: " + error);
    }
  }

  // Pools one Vm's pauses and counters. `count_heap_device` is false for
  // fleet tenants, whose shared device is counted once by the caller.
  void Collect(Vm& vm, bool count_heap_device) {
    for (const GcCycleStats& c : vm.gc_stats().cycles()) {
      cycles_.Add(c);
    }
    if (count_heap_device) {
      AddNvm(vm.heap_device().counters());
    }
    AddCounters(vm.dram_device().counters(), &dram_);
    app_ns_ += vm.app_time_ns();
    old_reclaims_ += vm.old_reclaim_count();
    if (traced()) {
      if (!vm_events_.empty()) {
        vm_events_ += ',';
      }
      const uint32_t pid = 2 + vm_count_;
      vm.tracer().AppendChromeEvents(&vm_events_, pid,
                                     "vm" + std::to_string(vm_count_) + " (simulated time)");
    }
    ++vm_count_;
  }

  void AddNvm(const DeviceCounters& c) { AddCounters(c, &nvm_); }

  void AddAllocated(double bytes) { alloc_bytes_ += bytes; }
  void Set(const std::string& name, double value) { workload_[name] = value; }

  int Finish();

 private:
  PassOptions options_;
  SteadyClock::time_point origin_;
  HostTrace trace_;
  std::unique_ptr<HostPauseRecorder> recorder_;
  double setup_s_ = 0.0;
  double run_s_ = 0.0;
  double verify_s_ = 0.0;
  GcStats cycles_;
  DeviceCounters nvm_;
  DeviceCounters dram_;
  uint64_t app_ns_ = 0;
  uint64_t old_reclaims_ = 0;
  double alloc_bytes_ = 0.0;
  uint32_t vm_count_ = 0;
  std::string vm_events_;
  std::map<std::string, double> workload_;
  uint64_t checks_ = 0;
  std::vector<std::string> failures_;
};

// Exact nearest-rank percentile of the pooled pause durations.
double PercentileMs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) {
    return 0.0;
  }
  std::sort(ns.begin(), ns.end());
  const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * ns.size()));
  return static_cast<double>(ns[std::max<size_t>(rank, 1) - 1]) / 1e6;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Pass::Finish() {
  const GcCycleStats t = cycles_.Totals();
  std::vector<uint64_t> pauses;
  for (const GcCycleStats& c : cycles_.cycles()) {
    pauses.push_back(c.pause_ns);
  }
  const double flushed = static_cast<double>(t.regions_flushed_sync + t.regions_flushed_async);
  const double accesses =
      static_cast<double>(nvm_.read_ops + nvm_.write_ops + dram_.read_ops + dram_.write_ops);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  // Workload-specific metrics read 0 where they do not apply.
  std::map<std::string, double> m = {
      {"read_p50_us", 0},       {"read_p99_us", 0},           {"write_p99_us", 0},
      {"read_kqps_at_slo", 0},  {"serve_p99_us", 0},          {"batch_tasks_per_s", 0},
      {"fleet.stall_s", 0},     {"fleet.throttle_windows", 0}, {"fleet.pauses_deferred", 0},
      {"fleet.serving_gc_count", 0}};
  for (const auto& [name, value] : workload_) {
    m[name] = value;
  }
  // Simulated time.
  m["gc_s"] = static_cast<double>(t.pause_ns) / 1e9;
  m["pause_p50_ms"] = PercentileMs(pauses, 50);
  m["pause_p90_ms"] = PercentileMs(pauses, 90);
  m["app_s"] = static_cast<double>(app_ns_) / 1e9;
  // Host time.
  m["setup_s"] = setup_s_;
  m["wall_s"] = run_s_;
  m["verify_s"] = verify_s_;
  m["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
  // gc
  m["gc.count"] = static_cast<double>(pauses.size());
  m["gc.read_phase_s"] = static_cast<double>(t.read_phase_ns) / 1e9;
  m["gc.writeback_phase_s"] = static_cast<double>(t.writeback_phase_ns) / 1e9;
  m["gc.refs_processed"] = static_cast<double>(t.refs_processed);
  m["gc.copied_mb"] = static_cast<double>(t.bytes_copied) / kMiB;
  m["gc.promoted_mb"] = static_cast<double>(t.bytes_promoted) / kMiB;
  m["gc.sim_ns_per_copied_byte"] =
      Ratio(static_cast<double>(t.pause_ns), static_cast<double>(t.bytes_copied));
  m["gc.steals"] = static_cast<double>(t.steals);
  m["prefetch.hit_frac"] =
      Ratio(static_cast<double>(t.prefetch_hits), static_cast<double>(t.prefetches_issued));
  // core: write cache and header map.
  m["cache.staged_mb"] = static_cast<double>(t.cache_bytes_staged) / kMiB;
  m["cache.overflow_mb"] = static_cast<double>(t.cache_overflow_bytes) / kMiB;
  m["cache.async_flush_frac"] = Ratio(static_cast<double>(t.regions_flushed_async), flushed);
  m["cache.steal_tainted_frac"] = Ratio(static_cast<double>(t.regions_steal_tainted), flushed);
  m["hm.installs"] = static_cast<double>(t.header_map_installs);
  m["hm.hits"] = static_cast<double>(t.header_map_hits);
  m["hm.overflow_frac"] =
      Ratio(static_cast<double>(t.header_map_overflows),
            static_cast<double>(t.header_map_installs + t.header_map_overflows));
  // nvm: device traffic (heap device = NVM, plus each Vm's DRAM device).
  m["nvm.read_mb"] = static_cast<double>(nvm_.read_bytes) / kMiB;
  m["nvm.write_mb"] = static_cast<double>(nvm_.write_bytes) / kMiB;
  m["nvm.nt_write_mb"] = static_cast<double>(nvm_.nt_write_bytes) / kMiB;
  m["nvm.write_ops"] = static_cast<double>(nvm_.write_ops);
  m["nvm.gc_write_mb"] = static_cast<double>(t.device_write_bytes) / kMiB;
  m["dram.read_mb"] = static_cast<double>(dram_.read_bytes) / kMiB;
  m["dram.write_mb"] = static_cast<double>(dram_.write_bytes) / kMiB;
  m["nvm.accesses"] = accesses;
  m["nvm.host_ns_per_access"] = Ratio(run_s_ * 1e9, accesses);
  // runtime / heap
  m["heap.old_reclaims"] = static_cast<double>(old_reclaims_);
  m["gen.major_count"] = static_cast<double>(t.is_major);
  m["gen.survivor_overflow_mb"] = static_cast<double>(t.survivor_overflow_bytes) / kMiB;
  m["alloc_mb"] = alloc_bytes_ / kMiB;
  if (traced()) {
    const double gc_host_s = recorder_ != nullptr ? recorder_->gc_host_s() : 0.0;
    m["gc.host_s"] = gc_host_s;
    m["mutator.host_s"] = run_s_ - gc_host_s;
    std::ofstream out(options_.trace_out);
    out << "{\"traceEvents\":[" << trace_.ChromeEvents()
        << (vm_events_.empty() ? "" : ",") << vm_events_ << "]}";
    Check(out.good(), "trace written to " + options_.trace_out);
  }

  std::string json = "{\"workload\":" + JsonString(options_.workload) +
                     ",\"seed\":" + std::to_string(options_.seed) + ",\"metrics\":{";
  char buf[128];
  bool first = true;
  for (const auto& [name, value] : m) {
    std::snprintf(buf, sizeof(buf), "%s%s:%.17g", first ? "" : ",", JsonString(name).c_str(),
                  value);
    json += buf;
    first = false;
  }
  json += "},\"checks\":" + std::to_string(checks_) + ",\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) {
      json += ',';
    }
    json += JsonString(failures_[i]);
  }
  json += "]}";
  std::printf("%s\n", json.c_str());
  return failures_.empty() ? 0 : 1;
}

// --- Workloads ---

// pagerank-all / -vanilla / -gen: the Spark page-rank profile on one Vm.
void RunPagerank(Pass& pass, const GcOptions& gc) {
  WorkloadProfile profile = SparkProfiles()[0];
  profile.seed = pass.seed(1);
  profile.total_allocation_bytes = static_cast<size_t>(kPagerankMiB * kMiB * pass.scale());

  std::unique_ptr<Vm> vm;
  std::unique_ptr<SyntheticApp> app;
  {
    Pass::Phase phase = pass.Setup();
    vm = std::make_unique<Vm>(pass.MakeVmOptions(gc));
    pass.HookPauses(vm.get());
    app = std::make_unique<SyntheticApp>(vm.get(), profile);
  }
  if (pass.setup_only()) {
    return;
  }
  WorkloadResult result;
  {
    Pass::Phase phase = pass.Run();
    result = app->Run();
  }
  // The app holds the live window's roots: verify while it is alive.
  pass.VerifyVm(*vm, profile.name);
  const uint64_t volume = profile.total_allocation_bytes;
  pass.Check(result.bytes_allocated >= volume &&
                 result.bytes_allocated - volume <= profile.array_bytes_max + 64,
             "allocated bytes match the profile volume");
  pass.AddAllocated(static_cast<double>(result.bytes_allocated));
  pass.Collect(*vm, /*count_heap_device=*/true);
}

// cassandra-open: open-loop write-only then read-only phases on a fresh Vm per
// offered rate.
void RunCassandra(Pass& pass) {
  const GcOptions gc = MakeGcOptions(GcVariant::kAll, kGcThreads);
  CassandraConfig config;
  config.seed = pass.seed(2);
  double slo_kqps = 0.0;
  LatencyResult top_read;
  LatencyResult top_write;
  for (double kqps : kCassandraRates) {
    std::unique_ptr<Vm> vm;
    std::unique_ptr<CassandraService> service;
    {
      Pass::Phase phase = pass.Setup();
      vm = std::make_unique<Vm>(pass.MakeVmOptions(gc));
      pass.HookPauses(vm.get());
      service = std::make_unique<CassandraService>(vm.get(), config);
    }
    if (pass.setup_only()) {
      continue;
    }
    const uint64_t requests =
        static_cast<uint64_t>(kqps * 1000.0 * kCassandraPhaseSimS * pass.scale());
    // Backlog: how far the server's clock ran past the last scheduled arrival.
    const auto run_phase = [&](double write_fraction, double* backlog_ms) {
      const uint64_t start = vm->now_ns();
      const LatencyResult r = service->RunPhase(requests, kqps, write_fraction);
      const uint64_t last_arrival =
          start + static_cast<uint64_t>(static_cast<double>(requests - 1) * 1e6 / kqps);
      *backlog_ms = static_cast<double>(vm->now_ns() - last_arrival) / 1e6;
      return r;
    };
    double write_backlog_ms = 0.0;
    double read_backlog_ms = 0.0;
    LatencyResult writes;
    LatencyResult reads;
    {
      Pass::Phase phase = pass.Run();
      writes = run_phase(1.0, &write_backlog_ms);
      reads = run_phase(0.0, &read_backlog_ms);
    }
    const std::string label = "cassandra@" + std::to_string(static_cast<int>(kqps));
    pass.VerifyVm(*vm, label);
    const Histogram* served = vm->metrics().histogram("cassandra.op_latency_ns");
    pass.Check(served != nullptr && served->count() == 2 * requests &&
                   writes.requests == requests && reads.requests == requests,
               label + " served every issued request");
    std::printf("cassandra %3.0f kQPS: read p50 %.3f ms p99 %.3f ms backlog %.3f ms | "
                "write p50 %.3f ms p99 %.3f ms backlog %.3f ms | %zu pauses\n",
                kqps, reads.p50_ms, reads.p99_ms, read_backlog_ms, writes.p50_ms, writes.p99_ms,
                write_backlog_ms, vm->gc_count());
    if (reads.p99_ms <= kSloMs && read_backlog_ms <= kSloMs) {
      slo_kqps = std::max(slo_kqps, kqps);
    }
    top_read = reads;
    top_write = writes;
    // Payload bytes: the preloaded rows, then a request object plus one row
    // (a response buffer or a replacement row) per request.
    pass.AddAllocated(static_cast<double>(config.rows) * config.row_bytes +
                      2.0 * static_cast<double>(requests) * (config.row_bytes + 48));
    pass.Collect(*vm, /*count_heap_device=*/true);
  }
  pass.Set("read_p50_us", top_read.p50_ms * 1e3);
  pass.Set("read_p99_us", top_read.p99_ms * 1e3);
  pass.Set("write_p99_us", top_write.p99_ms * 1e3);
  pass.Set("read_kqps_at_slo", slo_kqps);
}

// fleet-qos: bench_fleet's coordinated three-tenant fleet, at kFleetScale
// times its volumes so that the serving tenant collects too.
void RunFleet(Pass& pass) {
  const double scale = kFleetScale * pass.scale();
  std::unique_ptr<FleetManager> fleet;
  ServingDriver* serving = nullptr;
  BatchDriver* batch = nullptr;
  BackgroundDriver* background = nullptr;
  ServingConfig sc;
  BatchConfig bc;
  BackgroundConfig gc_cfg;
  {
    Pass::Phase phase = pass.Setup();
    fleet = std::make_unique<FleetManager>(FleetOptions{});
    VmOptions vm_base = pass.MakeVmOptions(MakeGcOptions(GcVariant::kAll, kFleetGcThreads));
    FleetTenantSpec serving_spec{"serving", QosTier::kServing, 800.0, vm_base};
    serving_spec.vm.heap.eden_regions = 512;  // bench_fleet's provisioned serving eden.
    const FleetTenantSpec batch_spec{"batch", QosTier::kBatch, 400.0, vm_base};
    const FleetTenantSpec background_spec{"background", QosTier::kBackground, 150.0, vm_base};
    const uint32_t s = fleet->AddTenant(serving_spec);
    const uint32_t b = fleet->AddTenant(batch_spec);
    const uint32_t g = fleet->AddTenant(background_spec);
    for (uint32_t id : {s, b, g}) {
      pass.HookPauses(&fleet->vm(id), fleet.get());
    }

    sc.total_requests = static_cast<uint64_t>(40000 * scale);
    sc.seed = pass.seed(3);
    bc.total_tasks = static_cast<uint64_t>(1200 * scale);
    bc.seed = pass.seed(4);
    gc_cfg.total_allocation_bytes = static_cast<size_t>(480.0 * kMiB * scale);
    gc_cfg.seed = pass.seed(5);
    auto serving_driver = std::make_unique<ServingDriver>(&fleet->vm(s), sc);
    auto batch_driver = std::make_unique<BatchDriver>(&fleet->vm(b), bc);
    auto background_driver = std::make_unique<BackgroundDriver>(&fleet->vm(g), gc_cfg);
    serving = serving_driver.get();
    batch = batch_driver.get();
    background = background_driver.get();
    fleet->SetDriver(s, std::move(serving_driver));
    fleet->SetDriver(b, std::move(batch_driver));
    fleet->SetDriver(g, std::move(background_driver));
  }
  if (pass.setup_only()) {
    return;
  }
  {
    Pass::Phase phase = pass.Run();
    fleet->Run();
  }
  double stall_ns = 0.0;
  double throttled = 0.0;
  for (uint32_t id = 0; id < fleet->tenant_count(); ++id) {
    Vm& vm = fleet->vm(id);
    pass.VerifyVm(vm, fleet->tenant_name(id));
    pass.Collect(vm, /*count_heap_device=*/false);
    stall_ns += static_cast<double>(fleet->arbiter().stats(id).total_stall_ns);
    throttled += static_cast<double>(fleet->arbiter().stats(id).windows_throttled);
  }
  pass.AddNvm(fleet->device().counters());
  // The serving tenant was added first: it is tenant 0.
  const Histogram* served = fleet->vm(0).metrics().histogram("serving.op_latency_ns");
  pass.Check(serving->served() == sc.total_requests && served != nullptr &&
                 served->count() == sc.total_requests,
             "serving tenant served every issued request");
  pass.Check(batch->tasks_done() == bc.total_tasks, "batch tenant ran every task");
  pass.Check(background->allocated_bytes() >= gc_cfg.total_allocation_bytes,
             "background tenant allocated its volume");
  // Payload bytes per tenant, as bench_fleet counts them.
  pass.AddAllocated(static_cast<double>((sc.rows + serving->served()) * sc.row_bytes +
                                        serving->served() * 48));
  pass.AddAllocated(static_cast<double>(bc.rows * bc.row_bytes +
                                        batch->tasks_done() * bc.intermediate_bytes));
  pass.AddAllocated(static_cast<double>(background->allocated_bytes()));
  pass.Set("serve_p99_us", static_cast<double>(serving->LatencySummary().p99) / 1e3);
  pass.Set("batch_tasks_per_s", batch->TasksPerSecond());
  pass.Set("fleet.serving_gc_count", static_cast<double>(fleet->vm(0).gc_count()));
  pass.Set("fleet.stall_s", stall_ns / 1e9);
  pass.Set("fleet.throttle_windows", throttled);
  pass.Set("fleet.pauses_deferred", static_cast<double>(fleet->pauses_deferred()));
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_suite --workload "
               "pagerank-all|pagerank-vanilla|pagerank-gen|cassandra-open|fleet-qos "
               "[--seed N] [--scale X] [--trace-out PATH] [--setup-only]\n");
  return 2;
}

int Main(int argc, char** argv) {
  PassOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      options.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--scale") {
      options.scale = std::atof(value);
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!(options.scale > 0.0 && options.scale <= 100.0)) {
    return Usage();
  }
  Pass pass(options);
  const std::string& w = options.workload;
  if (w == "pagerank-all") {
    RunPagerank(pass, MakeGcOptions(GcVariant::kAllAsync, kGcThreads));
  } else if (w == "pagerank-vanilla") {
    RunPagerank(pass, MakeGcOptions(GcVariant::kVanilla, kGcThreads));
  } else if (w == "pagerank-gen") {
    RunPagerank(pass, GenerationalGcOptions(CollectorKind::kG1, kGcThreads));
  } else if (w == "cassandra-open") {
    RunCassandra(pass);
  } else if (w == "fleet-qos") {
    RunFleet(pass);
  } else {
    return Usage();
  }
  return pass.Finish();
}

}  // namespace
}  // namespace nvmgc

int main(int argc, char** argv) { return nvmgc::Main(argc, argv); }
