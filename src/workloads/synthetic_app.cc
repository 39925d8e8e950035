#include "src/workloads/synthetic_app.h"

#include <algorithm>

#include "src/util/check.h"

namespace nvmgc {

SyntheticApp::SyntheticApp(Vm* vm, WorkloadProfile profile)
    : vm_(vm), profile_(std::move(profile)), rng_(profile_.seed) {
  mutator_ = vm_->CreateMutator();
  KlassTable& klasses = vm_->heap().klasses();
  node_klass_ = klasses.RegisterRegular(profile_.name + ".Node",
                                        static_cast<uint16_t>(profile_.small_ref_fields),
                                        profile_.small_payload_bytes);
  container_klass_ = klasses.RegisterRegular(profile_.name + ".Container", 4, 16);
  byte_array_klass_ = klasses.RegisterByteArray(profile_.name + ".byte[]");
  ref_array_klass_ = klasses.RegisterRefArray(profile_.name + ".Object[]");
  node_site_ = vm_->RegisterAllocSite(profile_.name + ".node");
  ref_array_site_ = vm_->RegisterAllocSite(profile_.name + ".ref[]");
  byte_array_site_ = vm_->RegisterAllocSite(profile_.name + ".byte[]");
  chain_head_ = GlobalRoot(*vm_);
}

void SyntheticApp::AttachSurvivor(Address object) {
  const size_t size = obj::SizeOfAt(object, vm_->heap().klasses());
  if (profile_.chain_fraction > 0.0 && rng_.NextBool(profile_.chain_fraction)) {
    // Deep single chain: object.ref[0] = previous chain head. During GC this
    // forms one long dependent pointer walk that a single worker must follow.
    const Klass& k = vm_->heap().klasses().Get(obj::KlassIdOf(object));
    if (obj::RefSlotCount(object, k) > 0) {
      mutator_->WriteRef(object, 0, chain_head_.Get());
      chain_head_.Set(object);
      chain_started_ = true;
      return;
    }
  }
  live_window_.emplace_back(GlobalRoot(*vm_, object), size);
  live_window_bytes_ += size;
  // With some probability, link the previous survivor to this one so the live
  // set is a graph rather than disjoint roots. A link is only ever taken from
  // the immediately preceding survivor, so chain depth is geometric (expected
  // ~1.5, max ~log n) — the traversal stays *wide*, as real application heaps
  // are, and GC parallelism is limited by memory bandwidth rather than by an
  // artificial pointer-chain critical path. (akka-uct's deliberately deep
  // chain comes from chain_fraction above.)
  constexpr double kLinkPrevProbability = 0.35;
  if (live_window_.size() >= 2 && rng_.NextBool(kLinkPrevProbability)) {
    const Address peer = live_window_[live_window_.size() - 2].first.Get();
    if (peer != kNullAddress && peer != object) {
      const Klass& pk = vm_->heap().klasses().Get(obj::KlassIdOf(peer));
      const size_t nslots = obj::RefSlotCount(peer, pk);
      if (nslots > 0 && pk.kind == KlassKind::kRegular) {
        mutator_->WriteRef(peer, rng_.NextBelow(nslots), object);
      }
    }
  }
  while (live_window_bytes_ > profile_.live_window_bytes && live_window_.size() > 1) {
    live_window_bytes_ -= live_window_.front().second;
    live_window_.pop_front();  // ~GlobalRoot releases the root cell.
  }
}

void SyntheticApp::AllocateOne() {
  Address object = kNullAddress;
  if (rng_.NextBool(profile_.small_object_fraction)) {
    object = mutator_->Allocate({node_klass_, 0, false, node_site_});
  } else if (rng_.NextBool(profile_.ref_array_fraction)) {
    const uint64_t length =
        rng_.NextInRange(profile_.array_bytes_min, profile_.array_bytes_max) / 8;
    object = mutator_->Allocate(
        {ref_array_klass_, std::max<uint64_t>(1, length), false, ref_array_site_});
  } else {
    const uint64_t bytes = rng_.NextInRange(profile_.array_bytes_min, profile_.array_bytes_max);
    object = mutator_->Allocate(
        {byte_array_klass_, std::max<uint64_t>(8, bytes), false, byte_array_site_});
  }
  allocated_bytes_ += obj::SizeOfAt(object, vm_->heap().klasses());
  if (rng_.NextBool(profile_.survival_fraction)) {
    AttachSurvivor(object);
  }
}

void SyntheticApp::TouchRandomLive(bool write) {
  // Accesses that hit in the CPU caches cost a fixed ~15 ns regardless of the
  // backing device; only misses reach the (DRAM or NVM) memory device.
  constexpr uint64_t kCacheHitNs = 15;
  if (live_window_.empty()) {
    return;
  }
  // Draw the entry, then hit or miss, and resolve the root only on a miss. A
  // live root is never null, so the draws are those of resolving first.
  const size_t index = rng_.NextBelow(live_window_.size());
  if (rng_.NextBool(profile_.mutator_cache_hit)) {
    vm_->clock().Advance(kCacheHitNs);
    return;
  }
  const Address target = live_window_[index].first.Get();
  NVMGC_DCHECK(target != kNullAddress);
  if (write) {
    mutator_->WritePayload(target, profile_.touch_bytes);
  } else {
    mutator_->ReadPayload(target, profile_.touch_bytes);
  }
}

void SyntheticApp::TouchLiveSet() {
  // Application reads/writes over the live set.
  double reads = profile_.reads_per_alloc;
  while (reads >= 1.0 || rng_.NextBool(reads)) {
    TouchRandomLive(/*write=*/false);
    reads -= 1.0;
    if (reads < 0.0) {
      break;
    }
  }
  double writes = profile_.writes_per_alloc;
  while (writes >= 1.0 || rng_.NextBool(writes)) {
    TouchRandomLive(/*write=*/true);
    writes -= 1.0;
    if (writes < 0.0) {
      break;
    }
  }
}

WorkloadResult SyntheticApp::Run() {
  const uint64_t start_ns = vm_->now_ns();
  const uint64_t start_gc_ns = vm_->gc_time_ns();
  const size_t start_gcs = vm_->gc_count();
  while (allocated_bytes_ < profile_.total_allocation_bytes) {
    AllocateOne();
    TouchLiveSet();
  }

  WorkloadResult result;
  result.name = profile_.name;
  result.total_ns = vm_->now_ns() - start_ns;
  result.gc_ns = vm_->gc_time_ns() - start_gc_ns;
  result.app_ns = result.total_ns - result.gc_ns;
  result.gc_count = vm_->gc_count() - start_gcs;
  result.bytes_allocated = allocated_bytes_;
  result.gc_bandwidth_mbps = GcBandwidthMbps(vm_->gc_stats());
  return result;
}

double GcBandwidthMbps(const GcStats& stats) {
  uint64_t gc_bytes = 0;
  uint64_t gc_ns = 0;
  for (const auto& cycle : stats.cycles()) {
    gc_bytes += cycle.device_read_bytes + cycle.device_write_bytes;
    gc_ns += cycle.pause_ns;
  }
  if (gc_ns == 0) {
    return 0.0;
  }
  return static_cast<double>(gc_bytes) / 1e6 / (static_cast<double>(gc_ns) / 1e9);
}

WorkloadResult RunWorkload(const WorkloadProfile& profile, const VmOptions& options,
                           const std::function<void(Vm&)>& post_run) {
  Vm vm(options);
  WorkloadResult result;
  {
    // Scoped so the app's roots are released before post_run observes the Vm.
    SyntheticApp app(&vm, profile);
    result = app.Run();
  }
  if (post_run) {
    post_run(vm);
  }
  return result;
}

WorkloadResult RunWorkload(const WorkloadProfile& profile, const HeapConfig& heap,
                           const GcOptions& gc) {
  VmOptions options;
  options.heap = heap;
  options.gc = gc;
  return RunWorkload(profile, options);
}

}  // namespace nvmgc
