// Integration tests: full GC cycles over real object graphs, verified for
// every collector/optimization combination.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/heap/heap_verifier.h"
#include "src/runtime/mutator.h"
#include "src/runtime/vm.h"
#include "src/util/random.h"

namespace nvmgc {
namespace {

struct GcConfig {
  std::string label;
  CollectorKind collector = CollectorKind::kG1;
  DeviceKind device = DeviceKind::kNvm;
  bool write_cache = false;
  bool header_map = false;
  bool non_temporal = false;
  bool async_flush = false;
  bool eden_on_dram = false;
  uint32_t threads = 4;
};

std::ostream& operator<<(std::ostream& os, const GcConfig& c) { return os << c.label; }

VmOptions MakeOptions(const GcConfig& c) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 128;
  o.heap.eden_regions = 64;
  o.heap.heap_device = c.device;
  o.heap.eden_on_dram = c.eden_on_dram;
  o.gc.collector = c.collector;
  o.gc.gc_threads = c.threads;
  o.gc.use_write_cache = c.write_cache;
  o.gc.use_header_map = c.header_map;
  o.gc.header_map_min_threads = 2;  // Exercise the map even in small tests.
  o.gc.use_non_temporal = c.non_temporal;
  o.gc.async_flush = c.async_flush;
  o.gc.prefetch = true;
  o.gc.prefetch_header_map = c.header_map;
  return o;
}

// A linked binary-graph workload with a shadow model. Every node's payload
// stores a unique id; the shadow records each id's expected children, so the
// graph can be validated after any number of copying collections.
class GraphWorkload {
 public:
  explicit GraphWorkload(Vm* vm) : vm_(vm), mutator_(vm->CreateMutator()) {
    node_klass_ = vm->heap().klasses().RegisterRegular("Node", 2, 16);
  }

  Address NewNode() {
    const Address node = mutator_->Allocate({node_klass_});
    const uint64_t id = next_id_++;
    WriteId(node, id);
    shadow_[id] = {0, 0};
    return node;
  }

  void Link(Address parent, int which, Address child) {
    mutator_->WriteRef(parent, which, child);
    shadow_[ReadId(parent)].child[which] = child == kNullAddress ? 0 : ReadId(child);
  }

  // Walks the graph from `root` and checks every node matches the shadow.
  void VerifyFrom(Address root) {
    std::set<uint64_t> seen;
    VerifyNode(root, &seen);
  }

  Mutator* mutator() { return mutator_; }
  KlassId node_klass() const { return node_klass_; }

  uint64_t ReadId(Address node) const {
    const Klass& k = vm_->heap().klasses().Get(node_klass_);
    uint64_t id;
    std::memcpy(&id, reinterpret_cast<const void*>(obj::PayloadOf(node, k)), sizeof(id));
    return id;
  }

 private:
  struct ShadowNode {
    uint64_t child[2];
  };

  void WriteId(Address node, uint64_t id) {
    const Klass& k = vm_->heap().klasses().Get(node_klass_);
    std::memcpy(reinterpret_cast<void*>(obj::PayloadOf(node, k)), &id, sizeof(id));
  }

  void VerifyNode(Address node, std::set<uint64_t>* seen) {
    ASSERT_NE(node, kNullAddress);
    const uint64_t id = ReadId(node);
    ASSERT_TRUE(shadow_.count(id)) << "node id " << id << " not in shadow model";
    if (!seen->insert(id).second) {
      return;
    }
    const Klass& k = vm_->heap().klasses().Get(obj::KlassIdOf(node));
    ASSERT_EQ(k.id, node_klass_);
    for (int which = 0; which < 2; ++which) {
      const Address child = obj::LoadRef(obj::RefSlot(node, k, which));
      const uint64_t expect = shadow_[id].child[which];
      if (expect == 0) {
        EXPECT_EQ(child, kNullAddress) << "id " << id << " child " << which;
      } else {
        ASSERT_NE(child, kNullAddress) << "id " << id << " child " << which;
        EXPECT_EQ(ReadId(child), expect) << "id " << id << " child " << which;
        VerifyNode(child, seen);
      }
    }
  }

  Vm* vm_;
  Mutator* mutator_;
  KlassId node_klass_ = 0;
  uint64_t next_id_ = 1;
  std::map<uint64_t, ShadowNode> shadow_;
};

class GcIntegrationTest : public ::testing::TestWithParam<GcConfig> {};

TEST_P(GcIntegrationTest, LiveChainSurvivesExplicitGc) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  // Build a 200-node chain, rooted at the head.
  Address head = g.NewNode();
  const RootHandle root = vm.NewRoot(head);
  Address cursor = head;
  for (int i = 0; i < 199; ++i) {
    Address next = g.NewNode();
    g.Link(cursor, 0, next);
    cursor = next;
  }
  for (int gc = 0; gc < 4; ++gc) {
    vm.CollectNow();
    g.VerifyFrom(vm.GetRoot(root));
  }
  HeapVerifier verifier(&vm.heap());
  std::string error;
  EXPECT_TRUE(verifier.VerifyReachable(vm.RootSlots(), &error)) << error;
  EXPECT_TRUE(verifier.VerifyParsability(&error)) << error;
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

TEST_P(GcIntegrationTest, GarbageIsReclaimed) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  Address live = g.NewNode();
  const RootHandle root = vm.NewRoot(live);
  // Allocate a lot of unreachable garbage; GCs triggered by eden exhaustion
  // must reclaim it without exhausting the heap.
  for (int i = 0; i < 200000; ++i) {
    g.NewNode();
  }
  EXPECT_GT(vm.gc_count(), 0u);
  vm.CollectNow();
  g.VerifyFrom(vm.GetRoot(root));
  // After a final collection nearly all regions should be free again.
  EXPECT_GT(vm.heap().free_region_count(), vm.heap().config().heap_regions / 2);
  static_cast<void>(root);
}

TEST_P(GcIntegrationTest, SharedSubgraphCopiedOnce) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  // Two roots share one diamond-shaped subgraph: forwarding pointers must
  // ensure a single copy.
  Address a = g.NewNode();
  Address b = g.NewNode();
  Address shared = g.NewNode();
  g.Link(a, 0, shared);
  g.Link(b, 0, shared);
  const RootHandle ra = vm.NewRoot(a);
  const RootHandle rb = vm.NewRoot(b);
  vm.CollectNow();
  const Address a2 = vm.GetRoot(ra);
  const Address b2 = vm.GetRoot(rb);
  const Klass& k = vm.heap().klasses().Get(g.node_klass());
  EXPECT_EQ(obj::LoadRef(obj::RefSlot(a2, k, 0)), obj::LoadRef(obj::RefSlot(b2, k, 0)));
  g.VerifyFrom(a2);
  g.VerifyFrom(b2);
}

TEST_P(GcIntegrationTest, CyclesSurvive) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  Address a = g.NewNode();
  Address b = g.NewNode();
  g.Link(a, 0, b);
  g.Link(b, 0, a);
  const RootHandle root = vm.NewRoot(a);
  vm.CollectNow();
  vm.CollectNow();
  g.VerifyFrom(vm.GetRoot(root));
}

TEST_P(GcIntegrationTest, PromotionToOldGenAndRemsets) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  Address old_obj = g.NewNode();
  const RootHandle root = vm.NewRoot(old_obj);
  // Age the object past the tenure threshold.
  for (uint32_t i = 0; i <= vm.heap().config().tenure_age; ++i) {
    vm.CollectNow();
  }
  old_obj = vm.GetRoot(root);
  ASSERT_TRUE(vm.heap().RegionFor(old_obj)->is_old_like());
  // Create an old->young edge through the write barrier, drop the young
  // object's root, and check the edge alone keeps it alive.
  Address young = g.NewNode();
  g.Link(old_obj, 1, young);
  vm.CollectNow();
  g.VerifyFrom(vm.GetRoot(root));
  std::string error;
  HeapVerifier verifier(&vm.heap());
  EXPECT_TRUE(verifier.VerifyRemsetCompleteness(&error)) << error;
}

TEST_P(GcIntegrationTest, RandomGraphChurnStaysConsistent) {
  Vm vm(MakeOptions(GetParam()));
  GraphWorkload g(&vm);
  Random rng(42);
  std::vector<RootHandle> roots;
  std::vector<Address> nodes;
  for (int i = 0; i < 50; ++i) {
    Address n = g.NewNode();
    roots.push_back(vm.NewRoot(n));
    nodes.push_back(n);
  }
  for (int round = 0; round < 20; ++round) {
    // Random links between live roots plus garbage churn.
    for (int i = 0; i < 30; ++i) {
      const size_t p = rng.NextBelow(roots.size());
      const size_t c = rng.NextBelow(roots.size());
      g.Link(vm.GetRoot(roots[p]), static_cast<int>(rng.NextBelow(2)), vm.GetRoot(roots[c]));
    }
    for (int i = 0; i < 3000; ++i) {
      g.NewNode();
    }
    if (round % 5 == 4) {
      vm.CollectNow();
    }
    for (RootHandle r : roots) {
      g.VerifyFrom(vm.GetRoot(r));
    }
  }
}

std::vector<GcConfig> AllConfigs() {
  std::vector<GcConfig> configs;
  for (CollectorKind collector : {CollectorKind::kG1, CollectorKind::kParallelScavenge}) {
    const std::string base = collector == CollectorKind::kG1 ? "g1" : "ps";
    configs.push_back({base + "_vanilla_nvm", collector, DeviceKind::kNvm});
    configs.push_back({base + "_vanilla_dram", collector, DeviceKind::kDram});
    GcConfig wc{base + "_writecache", collector, DeviceKind::kNvm, true};
    configs.push_back(wc);
    GcConfig all{base + "_all", collector, DeviceKind::kNvm, true, true, true};
    configs.push_back(all);
    GcConfig async{base + "_async", collector, DeviceKind::kNvm, true, true, true, true};
    configs.push_back(async);
  }
  GcConfig one_thread{"g1_all_1thread", CollectorKind::kG1, DeviceKind::kNvm, true, true, true};
  one_thread.threads = 1;
  configs.push_back(one_thread);
  GcConfig many{"g1_all_16threads", CollectorKind::kG1, DeviceKind::kNvm, true, true, true, true};
  many.threads = 16;
  configs.push_back(many);
  GcConfig young_dram{"g1_youngdram", CollectorKind::kG1, DeviceKind::kNvm};
  young_dram.eden_on_dram = true;
  configs.push_back(young_dram);
  return configs;
}

INSTANTIATE_TEST_SUITE_P(AllGcConfigs, GcIntegrationTest, ::testing::ValuesIn(AllConfigs()),
                         [](const ::testing::TestParamInfo<GcConfig>& info) {
                           return info.param.label;
                         });

// Determinism: the collector steps its logical workers in simulated-clock
// order on one host thread, and hashes header-map keys by arena offset, so a
// pause is a function of the heap and the options alone. Two Vms alive in one
// process (different arena addresses) must agree pause by pause.
VmOptions DeterminismOptions(bool generational) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.dram_cache_regions = 128;
  o.heap.heap_device = DeviceKind::kNvm;
  if (generational) {
    o.gc = GenerationalGcOptions(CollectorKind::kG1, 8);
  } else {
    o.heap.eden_regions = 64;
    o.gc = GcOptionsBuilder(AllOptimizationsOptions(CollectorKind::kG1, 8)).AsyncFlush().Build();
  }
  return o;
}

// Seeded churn: a rooted random graph that keeps growing live chains while
// allocating garbage, with implicit (eden-full) and explicit collections.
void RunSeededChurn(Vm* vm, uint64_t seed) {
  GraphWorkload g(vm);
  Random rng(seed);
  std::vector<RootHandle> roots;
  for (int i = 0; i < 64; ++i) {
    roots.push_back(vm->NewRoot(g.NewNode()));
  }
  for (int round = 0; round < 12; ++round) {
    for (int i = 0; i < 2000; ++i) {
      const Address fresh = g.NewNode();
      const RootHandle r = roots[rng.NextBelow(roots.size())];
      if (rng.NextBelow(4) == 0) {
        // Keep it: push the fresh node in front of a root's chain.
        g.Link(fresh, 0, vm->GetRoot(r));
        vm->SetRoot(r, fresh);
      } else if (rng.NextBelow(8) == 0) {
        g.Link(vm->GetRoot(r), 1, vm->GetRoot(roots[rng.NextBelow(roots.size())]));
      }
    }
    const bool major = vm->options().gc.generational.enabled && round % 4 == 3;
    vm->CollectNow(major ? GcKind::kMajor : GcKind::kMinor);
  }
  for (RootHandle r : roots) {
    g.VerifyFrom(vm->GetRoot(r));
  }
}

class DeterminismTest : public ::testing::TestWithParam<bool> {};

TEST_P(DeterminismTest, TwoVmsInOneProcessAgreePauseByPause) {
  Vm a(DeterminismOptions(GetParam()));
  Vm b(DeterminismOptions(GetParam()));
  RunSeededChurn(&a, 11);
  RunSeededChurn(&b, 11);
  const std::vector<GcCycleStats>& ca = a.gc_stats().cycles();
  const std::vector<GcCycleStats>& cb = b.gc_stats().cycles();
  ASSERT_EQ(ca.size(), cb.size());
  uint64_t steals = 0;
  for (size_t i = 0; i < ca.size(); ++i) {
    EXPECT_EQ(ca[i].pause_ns, cb[i].pause_ns) << "pause " << i;
    EXPECT_EQ(ca[i].read_phase_ns, cb[i].read_phase_ns) << "pause " << i;
    EXPECT_EQ(ca[i].steals, cb[i].steals) << "pause " << i;
    steals += ca[i].steals;
  }
  EXPECT_GT(steals, 0u);  // The workers did share work.
  const GcCycleStats ta = a.gc_stats().Totals();
  const GcCycleStats tb = b.gc_stats().Totals();
  for (const GcCycleField& f : kGcCycleFields) {
    EXPECT_EQ(ta.*f.member, tb.*f.member) << (f.metric != nullptr ? f.metric : "unnamed field");
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, DeterminismTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "generational" : "all_async";
                         });

// A pointer chain is serial work: the slot of node k+1 is pushed only once
// node k is copied, so extra GC threads can steal it but never copy two links
// at once. A stolen slot is processed no earlier than it was pushed, so eight
// threads must not finish the chain's read phase faster than one.
uint64_t ChainReadPhaseNs(CollectorKind collector, uint32_t threads) {
  VmOptions o;
  o.heap.region_bytes = 64 * 1024;
  o.heap.heap_regions = 512;
  o.heap.eden_regions = 64;
  o.heap.heap_device = DeviceKind::kNvm;
  o.gc = VanillaOptions(collector, threads);
  Vm vm(o);
  GraphWorkload g(&vm);
  const RootHandle head = vm.NewRoot(g.NewNode());
  for (int i = 0; i < 4000; ++i) {
    const Address fresh = g.NewNode();
    g.Link(fresh, 0, vm.GetRoot(head));
    vm.SetRoot(head, fresh);
  }
  const GcCycleStats cycle = vm.CollectNow();
  g.VerifyFrom(vm.GetRoot(head));
  EXPECT_EQ(vm.gc_stats().cycles().size(), 1u);  // The chain was never split.
  return cycle.read_phase_ns;
}

TEST(SteppedWorkersTest, StolenChainLinksRunNoEarlierThanPushed) {
  const uint64_t one = ChainReadPhaseNs(CollectorKind::kG1, 1);
  const uint64_t eight = ChainReadPhaseNs(CollectorKind::kG1, 8);
  EXPECT_GE(eight, one) << "1 thread: " << one << " ns, 8 threads: " << eight << " ns";
  EXPECT_LT(eight, one * 2) << "1 thread: " << one << " ns, 8 threads: " << eight << " ns";
}

}  // namespace
}  // namespace nvmgc
