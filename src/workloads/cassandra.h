// Cassandra-style key-value service driven by an open-loop load generator
// (the analog of cassandra-stress, Section 5.1 / Figure 8).
//
// The service keeps a resident table of row objects on the managed heap and
// serves read and write requests; every request allocates protocol garbage,
// and writes replace whole rows (Cassandra's immutable-row update path).
// Requests arrive on an open-loop schedule at a configured offered
// throughput, so a GC pause delays every request queued behind it — exactly
// the mechanism behind the paper's tail-latency results.

#ifndef NVMGC_SRC_WORKLOADS_CASSANDRA_H_
#define NVMGC_SRC_WORKLOADS_CASSANDRA_H_

#include <cstdint>
#include <memory>

#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/util/histogram.h"
#include "src/workloads/spark.h"

namespace nvmgc {

struct CassandraConfig {
  uint32_t rows = 16000;
  uint32_t row_bytes = 512;
  double zipf_theta = 0.8;  // Row-popularity skew.
  uint64_t seed = 11;
};

struct LatencyResult {
  double offered_kqps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  uint64_t requests = 0;
};

class CassandraService {
 public:
  CassandraService(Vm* vm, const CassandraConfig& config);

  // Runs one phase of `requests` arrivals at `offered_kqps` thousand requests
  // per simulated second; `write_fraction` selects the mix (cassandra-stress
  // runs a write-only phase then a read-only phase).
  LatencyResult RunPhase(uint64_t requests, double offered_kqps, double write_fraction);

  // Payload bytes allocated so far: the preloaded rows, then per request a
  // request object (48 bytes) plus one row (a response buffer or a
  // replacement row).
  uint64_t bytes_allocated() const { return bytes_allocated_; }

 private:
  void ServeRead(uint64_t row);
  void ServeWrite(uint64_t row);

  Vm* vm_;
  CassandraConfig config_;
  Mutator* mutator_;
  KlassId row_klass_ = 0;
  KlassId request_klass_ = 0;
  std::unique_ptr<ManagedTable> table_;
  Random rng_;
  ZipfGenerator zipf_;
  uint64_t bytes_allocated_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_WORKLOADS_CASSANDRA_H_
