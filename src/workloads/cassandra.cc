#include "src/workloads/cassandra.h"

#include <algorithm>

namespace nvmgc {

namespace {
// Request-handling CPU cost outside heap accesses: protocol parsing,
// serialization, coordination.
constexpr uint64_t kRequestCpuNs = 3500;
// Payload of the protocol object every request allocates.
constexpr uint32_t kRequestPayloadBytes = 48;
}  // namespace

CassandraService::CassandraService(Vm* vm, const CassandraConfig& config)
    : vm_(vm),
      config_(config),
      mutator_(vm->CreateMutator()),
      rng_(config.seed),
      zipf_(config.rows, config.zipf_theta, config.seed ^ 0x5a5a) {
  KlassTable& klasses = vm->heap().klasses();
  row_klass_ = klasses.RegisterByteArray("cassandra.Row");
  request_klass_ = klasses.RegisterRegular("cassandra.Request", 1, kRequestPayloadBytes);
  table_ = std::make_unique<ManagedTable>(vm, mutator_, config.rows);
  for (uint64_t i = 0; i < config.rows; ++i) {
    table_->Set(i, mutator_->Allocate({row_klass_, config.row_bytes}));
  }
  bytes_allocated_ = static_cast<uint64_t>(config.rows) * config.row_bytes;
}

void CassandraService::ServeRead(uint64_t row) {
  const Address request = mutator_->Allocate({request_klass_});
  const Address data = table_->Get(row);
  mutator_->WriteRef(request, 0, data);
  mutator_->ReadPayload(data, config_.row_bytes);
  // Response buffer: copy of the row, immediately garbage after the reply.
  const Address response = mutator_->Allocate({row_klass_, config_.row_bytes});
  mutator_->WritePayload(response, config_.row_bytes);
}

void CassandraService::ServeWrite(uint64_t row) {
  const Address request = mutator_->Allocate({request_klass_});
  // Cassandra rows are immutable: a write allocates a replacement row.
  const Address fresh = mutator_->Allocate({row_klass_, config_.row_bytes});
  mutator_->WriteRef(request, 0, fresh);
  mutator_->WritePayload(fresh, config_.row_bytes);
  table_->Set(row, fresh);  // Previous row becomes garbage.
}

LatencyResult CassandraService::RunPhase(uint64_t requests, double offered_kqps,
                                         double write_fraction) {
  Histogram latencies;
  const double interarrival_ns = 1e6 / offered_kqps;  // kQPS -> ns between arrivals.
  const uint64_t phase_start = vm_->now_ns();
  for (uint64_t i = 0; i < requests; ++i) {
    const uint64_t arrival =
        phase_start + static_cast<uint64_t>(static_cast<double>(i) * interarrival_ns);
    // Open loop: the server idles until the arrival; a backlog (clock past the
    // arrival) queues the request and its waiting time counts as latency.
    vm_->clock().SyncForwardTo(arrival);
    const uint64_t row = zipf_.Next();
    if (rng_.NextBool(write_fraction)) {
      ServeWrite(row);
    } else {
      ServeRead(row);
    }
    vm_->clock().Advance(kRequestCpuNs);
    const uint64_t latency_ns = vm_->now_ns() - arrival;
    latencies.Record(latency_ns);
    // Also feed the Vm's registry so the op latencies surface in GcReport's
    // percentile table and in bench JSON histogram digests.
    vm_->metrics().RecordHistogram("cassandra.op_latency_ns", latency_ns);
  }
  bytes_allocated_ += requests * (config_.row_bytes + kRequestPayloadBytes);
  LatencyResult result;
  result.offered_kqps = offered_kqps;
  result.requests = requests;
  result.p50_ms = static_cast<double>(latencies.Percentile(50)) / 1e6;
  result.p95_ms = static_cast<double>(latencies.Percentile(95)) / 1e6;
  result.p99_ms = static_cast<double>(latencies.Percentile(99)) / 1e6;
  result.mean_ms = latencies.Mean() / 1e6;
  return result;
}

}  // namespace nvmgc
