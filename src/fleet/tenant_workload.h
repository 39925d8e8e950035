// Step-wise tenant workload drivers for the FleetManager.
//
// The single-Vm workloads (src/workloads/) run to completion inside one call,
// which is useless for a fleet: tenants must interleave in simulated time so
// their traffic lands in the same device ledger epochs. Each driver here does
// a small quantum of application work per Step() — the FleetManager picks the
// tenant with the least-advanced clock each iteration, keeping the fleet
// loosely time-synchronized.
//
// Three drivers mirror the mixed production fleet of the bench:
//   ServingDriver     Cassandra-style open-loop request serving (read/write
//                     row ops, Zipf row popularity, op latency histogram) —
//                     the QoS-serving tenant whose p99 the fleet protects.
//   BatchDriver       Spark-style analytics tasks: scan a slice of a rooted
//                     table, allocate short-lived intermediates — the
//                     throughput tenant.
//   BackgroundDriver  Renaissance-style synthetic churn: allocation-heavy
//                     with a sliding survivor window — the bandwidth hog the
//                     arbiter exists to contain.

#ifndef NVMGC_SRC_FLEET_TENANT_WORKLOAD_H_
#define NVMGC_SRC_FLEET_TENANT_WORKLOAD_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"
#include "src/runtime/global_root.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/util/random.h"
#include "src/workloads/spark.h"

namespace nvmgc {

// One tenant's application, advanced one quantum at a time.
class TenantDriver {
 public:
  virtual ~TenantDriver() = default;

  // Runs one quantum of application work on the tenant's Vm (advances its
  // simulated clock). Must be a no-op once Done().
  virtual void Step() = 0;
  virtual bool Done() const = 0;
};

// --- Serving tenant ---

struct ServingConfig {
  uint64_t rows = 16384;
  uint32_t row_bytes = 256;
  double zipf_theta = 0.99;
  double offered_kqps = 90.0;
  double write_fraction = 0.10;
  uint64_t total_requests = 40000;
  uint64_t requests_per_step = 32;
  // Request-handling CPU outside heap accesses (parse/serialize/coordinate).
  uint64_t request_cpu_ns = 3500;
  uint64_t seed = 1;
};

class ServingDriver : public TenantDriver {
 public:
  ServingDriver(Vm* vm, const ServingConfig& config);

  void Step() override;
  bool Done() const override { return served_ >= config_.total_requests; }

  // Digest of the Vm's serving.op_latency_ns histogram (simulated ns).
  HistogramSummary LatencySummary() const;
  uint64_t served() const { return served_; }

 private:
  void ServeRead(uint64_t row);
  void ServeWrite(uint64_t row);

  Vm* vm_;
  ServingConfig config_;
  Mutator* mutator_;
  Random rng_;
  ZipfGenerator zipf_;
  KlassId row_klass_ = 0;
  KlassId request_klass_ = 0;
  std::unique_ptr<ManagedTable> table_;
  uint64_t served_ = 0;
  uint64_t first_arrival_ns_ = 0;
  bool started_ = false;
};

// --- Batch tenant ---

struct BatchConfig {
  uint64_t rows = 32768;
  uint32_t row_bytes = 512;
  uint64_t total_tasks = 600;
  uint64_t tasks_per_step = 2;
  // Rows scanned and intermediate allocations per task.
  uint64_t rows_per_task = 96;
  uint32_t intermediate_bytes = 2048;
  uint64_t seed = 2;
};

class BatchDriver : public TenantDriver {
 public:
  BatchDriver(Vm* vm, const BatchConfig& config);

  void Step() override;
  bool Done() const override { return tasks_done_ >= config_.total_tasks; }

  uint64_t tasks_done() const { return tasks_done_; }
  // Tasks per simulated second since the first step.
  double TasksPerSecond() const;

 private:
  void RunTask();

  Vm* vm_;
  BatchConfig config_;
  Mutator* mutator_;
  Random rng_;
  KlassId row_klass_ = 0;
  KlassId result_klass_ = 0;
  std::unique_ptr<ManagedTable> table_;
  uint64_t tasks_done_ = 0;
  uint64_t start_ns_ = 0;
  bool started_ = false;
};

// --- Background tenant ---

struct BackgroundConfig {
  size_t total_allocation_bytes = 48 * 1024 * 1024;
  uint64_t allocs_per_step = 192;
  uint32_t object_bytes_min = 128;
  uint32_t object_bytes_max = 4096;
  double survival_fraction = 0.12;
  size_t live_window_bytes = 3 * 1024 * 1024;
  // Payload touches per allocation (reads + writes), modeling churny
  // streaming passes over fresh data.
  double touches_per_alloc = 0.7;
  uint64_t seed = 3;
};

class BackgroundDriver : public TenantDriver {
 public:
  BackgroundDriver(Vm* vm, const BackgroundConfig& config);

  void Step() override;
  bool Done() const override { return allocated_bytes_ >= config_.total_allocation_bytes; }

  uint64_t allocated_bytes() const { return allocated_bytes_; }

 private:
  void AllocateOne();

  Vm* vm_;
  BackgroundConfig config_;
  Mutator* mutator_;
  Random rng_;
  KlassId byte_array_klass_ = 0;
  std::deque<std::pair<GlobalRoot, size_t>> live_window_;
  size_t live_window_bytes_ = 0;
  uint64_t allocated_bytes_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_FLEET_TENANT_WORKLOAD_H_
