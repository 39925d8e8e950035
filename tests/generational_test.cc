// Generational NVM-tiered heap tests: DRAM young generation, age-based
// tenuring into NVM, the old->young remembered-set barrier, large-object
// routing, and minor/major cycle equivalence.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/heap/heap_verifier.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"

namespace nvmgc {
namespace {

// Small generational VM: by default a 32 MiB heap whose young generation the
// Vm derives as heap/4 = 128 regions (16 of them survivor).
VmOptions GenVmOptions(uint32_t tenure_age = 3, uint32_t heap_regions = 512) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = heap_regions;
  o.heap.dram_cache_regions = 128;
  o.heap.heap_device = DeviceKind::kNvm;
  o.heap.tenure_age = tenure_age;
  o.gc = GenerationalGcOptions(CollectorKind::kG1, 4);
  return o;
}

void ExpectHeapConsistent(Vm* vm) {
  HeapVerifier verifier(&vm->heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm->RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

TEST(GenerationalHeapTest, YoungAllocationsLandInDramEden) {
  Vm vm(GenVmOptions());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const Address a = m->Allocate({node});
  Region* region = vm.heap().RegionFor(a);
  ASSERT_NE(region, nullptr);
  EXPECT_EQ(region->type(), RegionType::kEden);
  // The young generation is served from the DRAM arena, not the NVM heap.
  EXPECT_TRUE(vm.heap().InCacheArena(a));
  EXPECT_FALSE(vm.heap().InHeapArena(a));
}

TEST(GenerationalHeapTest, TenuringProgressionAgesThroughSurvivorToOld) {
  const uint32_t kThreshold = 3;
  Vm vm(GenVmOptions(kThreshold));
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  // Each minor collection copies the survivor and bumps its age; it stays in
  // a DRAM survivor region until the copy that would reach the threshold.
  for (uint32_t i = 1; i < kThreshold; ++i) {
    vm.CollectNow(GcKind::kMinor);
    const Address a = vm.GetRoot(root);
    EXPECT_EQ(vm.heap().RegionFor(a)->type(), RegionType::kSurvivor) << "copy " << i;
    EXPECT_TRUE(vm.heap().InCacheArena(a)) << "copy " << i;
    EXPECT_EQ(obj::AgeOf(obj::LoadMark(a)), i) << "copy " << i;
  }
  // The threshold-reaching copy tenures the object into the NVM old gen.
  vm.CollectNow(GcKind::kMinor);
  const Address tenured = vm.GetRoot(root);
  EXPECT_EQ(vm.heap().RegionFor(tenured)->type(), RegionType::kOld);
  EXPECT_TRUE(vm.heap().InHeapArena(tenured));
  const GcCycleStats& last = vm.gc_stats().cycles().back();
  EXPECT_GT(last.objects_promoted, 0u);
  EXPECT_GT(last.bytes_promoted, 0u);
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, TenureThresholdOnePromotesOnFirstCopy) {
  Vm vm(GenVmOptions(/*tenure_age=*/1));
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  vm.CollectNow(GcKind::kMinor);
  const Address a = vm.GetRoot(root);
  EXPECT_EQ(vm.heap().RegionFor(a)->type(), RegionType::kOld);
  EXPECT_TRUE(vm.heap().InHeapArena(a));
}

TEST(GenerationalHeapTest, OldToYoungRemsetKeepsYoungAlive) {
  Vm vm(GenVmOptions(/*tenure_age=*/1));
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  vm.CollectNow(GcKind::kMinor);
  const Address parent = vm.GetRoot(root);
  ASSERT_TRUE(vm.heap().RegionFor(parent)->is_old_like());
  // Old->young edge through the write barrier; the young child has no root,
  // so only the remembered set can keep it alive across a minor collection.
  const Address child = m->Allocate({node});
  m->WriteRef(parent, 0, child);
  vm.CollectNow(GcKind::kMinor);
  const Address moved = m->ReadRef(vm.GetRoot(root), 0);
  ASSERT_NE(moved, kNullAddress);
  EXPECT_EQ(obj::KlassIdOf(moved), node);
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, RemsetStaysCorrectUnderRepeatedMutation) {
  Vm vm(GenVmOptions(/*tenure_age=*/1));
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const Klass& k = vm.heap().klasses().Get(node);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  vm.CollectNow(GcKind::kMinor);
  ASSERT_TRUE(vm.heap().RegionFor(vm.GetRoot(root))->is_old_like());
  // Retarget the old object's slots at fresh young objects every round; each
  // round must remember the live edge and let the stale target die.
  for (int round = 0; round < 8; ++round) {
    const Address parent = vm.GetRoot(root);
    const Address fresh = m->Allocate({node});
    m->WriteRef(parent, round % 2, fresh);
    for (int i = 0; i < 500; ++i) {
      m->Allocate({node});  // Garbage pressure around the live edge.
    }
    vm.CollectNow(GcKind::kMinor);
    const Address kept = obj::LoadRef(obj::RefSlot(vm.GetRoot(root), k, round % 2));
    ASSERT_NE(kept, kNullAddress) << "round " << round;
    EXPECT_EQ(obj::KlassIdOf(kept), node) << "round " << round;
  }
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, LargeObjectRoutingAtThresholdBoundary) {
  Vm vm(GenVmOptions());
  const size_t kThresholdBytes = vm.heap().region_bytes() / 8;  // 8 KiB.
  Mutator* m = vm.CreateMutator();
  const KlassId bytes = vm.heap().klasses().RegisterByteArray("byte[]");
  const Klass& k = vm.heap().klasses().Get(bytes);
  // Pick lengths so the object size lands just below / exactly at the
  // threshold (byte arrays are 8-byte aligned, so subtracting 8 from the
  // boundary length stays strictly below).
  uint64_t at_len = 0;
  while (obj::SizeOf(k, at_len + 8) <= kThresholdBytes) {
    at_len += 8;
  }
  ASSERT_EQ(obj::SizeOf(k, at_len), kThresholdBytes);
  const Address below = m->Allocate({bytes, at_len - 8});
  EXPECT_EQ(vm.heap().RegionFor(below)->type(), RegionType::kEden);
  const Address at = m->Allocate({bytes, at_len});
  EXPECT_EQ(vm.heap().RegionFor(at)->type(), RegionType::kLarge);
  EXPECT_TRUE(vm.heap().InHeapArena(at));
  const Address above = m->Allocate({bytes, at_len + 128});
  EXPECT_EQ(vm.heap().RegionFor(above)->type(), RegionType::kLarge);
  // The explicit hint routes even a small object to the large-object space.
  const Address hinted = m->Allocate({bytes, 64, /*large_object=*/true});
  EXPECT_EQ(vm.heap().RegionFor(hinted)->type(), RegionType::kLarge);
  // Large objects are tenured in place: never copied by minor or major GC.
  const RootHandle root = vm.NewRoot(at);
  vm.CollectNow(GcKind::kMinor);
  vm.CollectNow(GcKind::kMajor);
  EXPECT_EQ(vm.GetRoot(root), at);
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, LargeRefArrayEdgesSurviveMinorAndMajor) {
  Vm vm(GenVmOptions());
  Mutator* m = vm.CreateMutator();
  const KlassId refs = vm.heap().klasses().RegisterRefArray("Object[]");
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 0, 8);
  const Address arr = m->Allocate({refs, 8, /*large_object=*/true});
  ASSERT_EQ(vm.heap().RegionFor(arr)->type(), RegionType::kLarge);
  const RootHandle root = vm.NewRoot(arr);
  // Unrooted young targets reachable only through the large array: the
  // barrier remset covers minors, the conservative slot scan covers majors.
  m->WriteRef(arr, 3, m->Allocate({node}));
  vm.CollectNow(GcKind::kMinor);
  Address kept = m->ReadRef(vm.GetRoot(root), 3);
  ASSERT_NE(kept, kNullAddress);
  EXPECT_EQ(obj::KlassIdOf(kept), node);
  m->WriteRef(arr, 5, m->Allocate({node}));
  vm.CollectNow(GcKind::kMajor);
  kept = m->ReadRef(vm.GetRoot(root), 5);
  ASSERT_NE(kept, kNullAddress);
  EXPECT_EQ(obj::KlassIdOf(kept), node);
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, SurvivorOverflowPromotesEarlyInsteadOfFailing) {
  // Tiny young generation: a 16-region heap gives 4 young regions -> 1
  // survivor region (64 KiB). A live set twice that size cannot fit the
  // survivor space, so the overflow path must promote the excess straight to
  // NVM old regions.
  Vm vm(GenVmOptions(/*tenure_age=*/3, /*heap_regions=*/16));
  Mutator* m = vm.CreateMutator();
  const KlassId bytes = vm.heap().klasses().RegisterByteArray("byte[]");
  std::vector<RootHandle> roots;
  for (int i = 0; i < 120; ++i) {
    roots.push_back(vm.NewRoot(m->Allocate({bytes, 1024})));
  }
  vm.CollectNow(GcKind::kMinor);
  const GcCycleStats& cycle = vm.gc_stats().cycles().back();
  EXPECT_GT(cycle.survivor_overflow_bytes, 0u);
  EXPECT_GT(cycle.bytes_promoted, 0u);
  for (RootHandle r : roots) {
    const Address a = vm.GetRoot(r);
    ASSERT_NE(a, kNullAddress);
    EXPECT_EQ(obj::KlassIdOf(a), bytes);
    EXPECT_EQ(obj::ArrayLength(a), 1024u);
  }
  ExpectHeapConsistent(&vm);
}

TEST(GenerationalHeapTest, MinorAndMajorCyclesReportTheirKind) {
  Vm vm(GenVmOptions());
  Mutator* m = vm.CreateMutator();
  const KlassId node = vm.heap().klasses().RegisterRegular("Node", 2, 16);
  const RootHandle root = vm.NewRoot(m->Allocate({node}));
  const GcCycleStats minor = vm.CollectNow(GcKind::kMinor);
  EXPECT_EQ(minor.is_major, 0u);
  EXPECT_GT(minor.young_cset_bytes, 0u);
  EXPECT_EQ(minor.old_cset_bytes, 0u);
  const GcCycleStats major = vm.CollectNow(GcKind::kMajor);
  EXPECT_EQ(major.is_major, 1u);
  static_cast<void>(root);
}

TEST(GenerationalHeapTest, MajorCollectionCompactsOldGeneration) {
  Vm vm(GenVmOptions(/*tenure_age=*/1));
  Mutator* m = vm.CreateMutator();
  const KlassId bytes = vm.heap().klasses().RegisterByteArray("byte[]");
  std::vector<RootHandle> roots;
  for (int i = 0; i < 256; ++i) {
    roots.push_back(vm.NewRoot(m->Allocate({bytes, 4096})));
  }
  vm.CollectNow(GcKind::kMinor);  // Tenure everything (threshold 1).
  const uint32_t old_before = vm.heap().CountRegions(RegionType::kOld);
  ASSERT_GT(old_before, 1u);
  // Drop 7 of 8 roots; a major cycle must evacuate the survivors into a
  // denser old generation and hand the rest of the regions back.
  for (size_t i = 0; i < roots.size(); ++i) {
    if (i % 8 != 0) {
      vm.ReleaseRoot(roots[i]);
    }
  }
  vm.CollectNow(GcKind::kMajor);
  EXPECT_LT(vm.heap().CountRegions(RegionType::kOld), old_before);
  for (size_t i = 0; i < roots.size(); i += 8) {
    EXPECT_EQ(obj::KlassIdOf(vm.GetRoot(roots[i])), bytes);
  }
  ExpectHeapConsistent(&vm);
}

// Deterministic linked-graph builder with a shadow model: node payloads carry
// unique ids, so two VMs running different collection schedules over the same
// build can be checked for identical reachable graphs.
class ShadowGraph {
 public:
  explicit ShadowGraph(Vm* vm) : vm_(vm), mutator_(vm->CreateMutator()) {
    klass_ = vm->heap().klasses().RegisterRegular("Shadow.Node", 2, 16);
  }

  Address NewNode() {
    const Address node = mutator_->Allocate({klass_});
    const uint64_t id = next_id_++;
    const Klass& k = vm_->heap().klasses().Get(klass_);
    std::memcpy(reinterpret_cast<void*>(obj::PayloadOf(node, k)), &id, sizeof(id));
    shadow_[id] = {0, 0};
    return node;
  }

  void Link(Address parent, int which, Address child) {
    mutator_->WriteRef(parent, which, child);
    shadow_[ReadId(parent)].child[which] = child == kNullAddress ? 0 : ReadId(child);
  }

  uint64_t ReadId(Address node) const {
    const Klass& k = vm_->heap().klasses().Get(klass_);
    uint64_t id;
    std::memcpy(&id, reinterpret_cast<const void*>(obj::PayloadOf(node, k)), sizeof(id));
    return id;
  }

  // Walks from `root` and returns id -> (child ids) for every reachable node,
  // checking each against the shadow model along the way.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> Walk(Address root) {
    std::map<uint64_t, std::pair<uint64_t, uint64_t>> out;
    WalkNode(root, &out);
    return out;
  }

  Mutator* mutator() { return mutator_; }

 private:
  struct ShadowNode {
    uint64_t child[2];
  };

  void WalkNode(Address node, std::map<uint64_t, std::pair<uint64_t, uint64_t>>* out) {
    if (node == kNullAddress) {
      return;
    }
    const uint64_t id = ReadId(node);
    ASSERT_TRUE(shadow_.count(id)) << "node id " << id << " not in shadow model";
    if (out->count(id)) {
      return;
    }
    const Klass& k = vm_->heap().klasses().Get(klass_);
    uint64_t child_ids[2] = {0, 0};
    for (int which = 0; which < 2; ++which) {
      const Address child = obj::LoadRef(obj::RefSlot(node, k, which));
      child_ids[which] = child == kNullAddress ? 0 : ReadId(child);
      EXPECT_EQ(child_ids[which], shadow_[id].child[which]) << "id " << id;
    }
    (*out)[id] = {child_ids[0], child_ids[1]};
    for (int which = 0; which < 2; ++which) {
      WalkNode(obj::LoadRef(obj::RefSlot(node, k, which)), out);
    }
  }

  Vm* vm_;
  Mutator* mutator_;
  KlassId klass_ = 0;
  uint64_t next_id_ = 1;
  std::map<uint64_t, ShadowNode> shadow_;
};

// Builds the same chain-with-backlinks graph in `g`, collecting per the
// given schedule, and returns the walked reachable graph.
std::map<uint64_t, std::pair<uint64_t, uint64_t>> BuildAndCollect(
    Vm* vm, ShadowGraph* g, const std::vector<GcKind>& schedule) {
  Address head = g->NewNode();
  const RootHandle root = vm->NewRoot(head);
  Address cursor = head;
  size_t next_gc = 0;
  for (int i = 1; i < 150; ++i) {
    Address next = g->NewNode();
    g->Link(cursor, 0, next);
    if (i % 7 == 0) {
      g->Link(next, 1, vm->GetRoot(root));  // Back edge to the (moved) head.
    }
    cursor = next;
    if (i % 40 == 0 && next_gc < schedule.size()) {
      vm->CollectNow(schedule[next_gc++]);
      cursor = kNullAddress;  // Stale after a copy; re-walk from the root.
      Address n = vm->GetRoot(root);
      const Klass& k = vm->heap().klasses().Get(obj::KlassIdOf(n));
      while (n != kNullAddress) {
        cursor = n;
        n = obj::LoadRef(obj::RefSlot(n, k, 0));
      }
    }
  }
  while (next_gc < schedule.size()) {
    vm->CollectNow(schedule[next_gc++]);
  }
  ExpectHeapConsistent(vm);
  return g->Walk(vm->GetRoot(root));
}

TEST(GenerationalHeapTest, MinorThenMajorMatchesMajorOnlyCollection) {
  // The same deterministic build under two schedules: interleaved minors with
  // a final major, versus majors only. The reachable graphs must be
  // identical — tenuring and remsets change placement, never the graph.
  Vm mixed_vm(GenVmOptions());
  ShadowGraph mixed_graph(&mixed_vm);
  const auto mixed = BuildAndCollect(
      &mixed_vm, &mixed_graph,
      {GcKind::kMinor, GcKind::kMinor, GcKind::kMinor, GcKind::kMajor});

  Vm major_vm(GenVmOptions());
  ShadowGraph major_graph(&major_vm);
  const auto major_only = BuildAndCollect(
      &major_vm, &major_graph,
      {GcKind::kMajor, GcKind::kMajor, GcKind::kMajor, GcKind::kMajor});

  EXPECT_EQ(mixed, major_only);
  EXPECT_EQ(mixed.size(), 150u);  // Every chain node reachable, none duplicated.
}

}  // namespace
}  // namespace nvmgc
