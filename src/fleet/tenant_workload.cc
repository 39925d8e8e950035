#include "src/fleet/tenant_workload.h"

#include <algorithm>

#include "src/heap/klass.h"
#include "src/obs/metrics.h"

namespace nvmgc {

// --- ServingDriver ---

ServingDriver::ServingDriver(Vm* vm, const ServingConfig& config)
    : vm_(vm),
      config_(config),
      mutator_(vm->CreateMutator()),
      rng_(config.seed),
      zipf_(config.rows, config.zipf_theta, config.seed ^ 0x5a5a) {
  KlassTable& klasses = vm->heap().klasses();
  row_klass_ = klasses.RegisterByteArray("serving.Row");
  request_klass_ = klasses.RegisterRegular("serving.Request", 1, 48);
  table_ = std::make_unique<ManagedTable>(vm, mutator_, config.rows);
  for (uint64_t i = 0; i < config.rows; ++i) {
    table_->Set(i, mutator_->Allocate({row_klass_, config.row_bytes}));
  }
}

void ServingDriver::ServeRead(uint64_t row) {
  const Address request = mutator_->Allocate({request_klass_});
  const Address data = table_->Get(row);
  mutator_->WriteRef(request, 0, data);
  mutator_->ReadPayload(data, config_.row_bytes);
  const Address response = mutator_->Allocate({row_klass_, config_.row_bytes});
  mutator_->WritePayload(response, config_.row_bytes);
}

void ServingDriver::ServeWrite(uint64_t row) {
  const Address request = mutator_->Allocate({request_klass_});
  const Address fresh = mutator_->Allocate({row_klass_, config_.row_bytes});
  mutator_->WriteRef(request, 0, fresh);
  mutator_->WritePayload(fresh, config_.row_bytes);
  table_->Set(row, fresh);
}

void ServingDriver::Step() {
  if (Done()) {
    return;
  }
  if (!started_) {
    // Arrivals are anchored at the first step, not construction: table
    // population time is provisioning, not serving.
    first_arrival_ns_ = vm_->now_ns();
    started_ = true;
  }
  const double interarrival_ns = 1e6 / config_.offered_kqps;
  const uint64_t batch = std::min(config_.requests_per_step, config_.total_requests - served_);
  for (uint64_t i = 0; i < batch; ++i) {
    const uint64_t arrival =
        first_arrival_ns_ +
        static_cast<uint64_t>(static_cast<double>(served_) * interarrival_ns);
    // Open loop: idle until the arrival; a backlog counts as queueing latency.
    vm_->clock().SyncForwardTo(arrival);
    const uint64_t row = zipf_.Next();
    if (rng_.NextBool(config_.write_fraction)) {
      ServeWrite(row);
    } else {
      ServeRead(row);
    }
    vm_->clock().Advance(config_.request_cpu_ns);
    const uint64_t latency_ns = vm_->now_ns() - arrival;
    vm_->metrics().RecordHistogram("serving.op_latency_ns", latency_ns);
    ++served_;
  }
}

HistogramSummary ServingDriver::LatencySummary() const {
  return vm_->metrics().Summary("serving.op_latency_ns");
}

// --- BatchDriver ---

BatchDriver::BatchDriver(Vm* vm, const BatchConfig& config)
    : vm_(vm), config_(config), mutator_(vm->CreateMutator()), rng_(config.seed) {
  KlassTable& klasses = vm->heap().klasses();
  row_klass_ = klasses.RegisterByteArray("batch.Row");
  result_klass_ = klasses.RegisterByteArray("batch.Intermediate");
  table_ = std::make_unique<ManagedTable>(vm, mutator_, config.rows);
  for (uint64_t i = 0; i < config.rows; ++i) {
    table_->Set(i, mutator_->Allocate({row_klass_, config.row_bytes}));
  }
}

void BatchDriver::RunTask() {
  // One task: scan a contiguous slice of the table (hot analytics loop),
  // fold each row into a freshly allocated intermediate buffer. The
  // intermediates die at task end — exactly the short-lived flood that makes
  // batch analytics GC-heavy.
  const uint64_t base = rng_.NextBelow(config_.rows);
  const Address intermediate = mutator_->Allocate({result_klass_, config_.intermediate_bytes});
  for (uint64_t i = 0; i < config_.rows_per_task; ++i) {
    const Address row = table_->Get((base + i) % config_.rows);
    mutator_->ReadPayload(row, config_.row_bytes);
    mutator_->WritePayload(intermediate, std::min(config_.intermediate_bytes, 256u));
  }
  ++tasks_done_;
}

void BatchDriver::Step() {
  if (Done()) {
    return;
  }
  if (!started_) {
    start_ns_ = vm_->now_ns();
    started_ = true;
  }
  const uint64_t batch = std::min(config_.tasks_per_step, config_.total_tasks - tasks_done_);
  for (uint64_t i = 0; i < batch; ++i) {
    RunTask();
  }
}

double BatchDriver::TasksPerSecond() const {
  if (!started_ || vm_->now_ns() <= start_ns_) {
    return 0.0;
  }
  return static_cast<double>(tasks_done_) * 1e9 /
         static_cast<double>(vm_->now_ns() - start_ns_);
}

// --- BackgroundDriver ---

BackgroundDriver::BackgroundDriver(Vm* vm, const BackgroundConfig& config)
    : vm_(vm), config_(config), mutator_(vm->CreateMutator()), rng_(config.seed) {
  byte_array_klass_ = vm->heap().klasses().RegisterByteArray("background.Chunk");
}

void BackgroundDriver::AllocateOne() {
  const uint32_t bytes = static_cast<uint32_t>(
      rng_.NextInRange(config_.object_bytes_min, config_.object_bytes_max));
  const Address object = mutator_->Allocate({byte_array_klass_, bytes});
  allocated_bytes_ += bytes;
  if (rng_.NextBool(config_.touches_per_alloc)) {
    mutator_->WritePayload(object, std::min<uint32_t>(bytes, 256));
  }
  if (rng_.NextBool(config_.survival_fraction)) {
    live_window_.emplace_back(GlobalRoot(*vm_, object), bytes);
    live_window_bytes_ += bytes;
    while (live_window_bytes_ > config_.live_window_bytes && !live_window_.empty()) {
      live_window_bytes_ -= live_window_.front().second;
      live_window_.pop_front();
    }
  }
}

void BackgroundDriver::Step() {
  if (Done()) {
    return;
  }
  for (uint64_t i = 0; i < config_.allocs_per_step && !Done(); ++i) {
    AllocateOne();
  }
}

}  // namespace nvmgc
