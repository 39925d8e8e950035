// Unit tests for the managed-heap substrate: klasses, object layout, regions,
// region management, and the heap verifier.

#include <gtest/gtest.h>

#include <memory>

#include "src/heap/heap.h"
#include "src/heap/heap_verifier.h"
#include "src/nvm/memory_device.h"

namespace nvmgc {
namespace {

class HeapTest : public ::testing::Test {
 protected:
  HeapTest()
      : nvm_(MakeOptaneProfile()),
        dram_(MakeDramProfile()),
        heap_(MakeConfig(), &nvm_, &dram_) {}

  static HeapConfig MakeConfig() {
    HeapConfig c;
    c.region_bytes = 64 * 1024;
    c.heap_regions = 32;
    c.dram_cache_regions = 8;
    c.eden_regions = 8;
    c.heap_device = DeviceKind::kNvm;
    return c;
  }

  MemoryDevice nvm_;
  MemoryDevice dram_;
  Heap heap_;
};

TEST_F(HeapTest, KlassRegistrationAndLookup) {
  KlassTable& t = heap_.klasses();
  const KlassId node = t.RegisterRegular("Node", 2, 16);
  const KlassId arr = t.RegisterRefArray("Object[]");
  const KlassId bytes = t.RegisterByteArray("byte[]");
  EXPECT_EQ(t.Get(node).ref_fields, 2);
  EXPECT_EQ(t.Get(node).payload_bytes, 16u);
  EXPECT_EQ(t.Get(arr).kind, KlassKind::kRefArray);
  EXPECT_EQ(t.Get(bytes).kind, KlassKind::kByteArray);
  EXPECT_TRUE(t.IsValid(node));
  EXPECT_FALSE(t.IsValid(999));
}

TEST_F(HeapTest, ObjectSizeComputation) {
  Klass regular;
  regular.kind = KlassKind::kRegular;
  regular.ref_fields = 3;
  regular.payload_bytes = 13;  // Padded to 16.
  EXPECT_EQ(obj::SizeOf(regular, 0), 16u + 24u + 16u);

  Klass ref_array;
  ref_array.kind = KlassKind::kRefArray;
  EXPECT_EQ(obj::SizeOf(ref_array, 10), 24u + 80u);

  Klass byte_array;
  byte_array.kind = KlassKind::kByteArray;
  EXPECT_EQ(obj::SizeOf(byte_array, 100), 24u + 104u);  // 100 padded to 104.
}

TEST_F(HeapTest, HeaderForwardingProtocol) {
  alignas(8) uint8_t storage[64] = {0};
  const Address a = reinterpret_cast<Address>(storage);
  obj::StoreMark(a, obj::MarkWithAge(2));
  EXPECT_FALSE(obj::IsForwarded(obj::LoadMark(a)));
  EXPECT_EQ(obj::AgeOf(obj::LoadMark(a)), 2u);

  const Address target = 0x1000;
  EXPECT_EQ(obj::CasForward(a, target), kNullAddress);  // We won.
  EXPECT_TRUE(obj::IsForwarded(obj::LoadMark(a)));
  EXPECT_EQ(obj::ForwardeeOf(obj::LoadMark(a)), target);
  // Second CAS loses and reports the winner.
  EXPECT_EQ(obj::CasForward(a, 0x2000), target);
}

TEST_F(HeapTest, RegionBumpAllocation) {
  Region* r = heap_.AllocateRegion(RegionType::kEden);
  ASSERT_NE(r, nullptr);
  const Address a = r->Allocate(100);
  const Address b = r->Allocate(100);
  EXPECT_EQ(b, a + 100);
  EXPECT_EQ(r->used(), 200u);
  // Exhaustion returns null.
  EXPECT_EQ(r->Allocate(r->free_bytes() + 1), kNullAddress);
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, EdenQuotaEnforced) {
  std::vector<Region*> edens;
  for (uint32_t i = 0; i < MakeConfig().eden_regions; ++i) {
    Region* r = heap_.AllocateRegion(RegionType::kEden);
    ASSERT_NE(r, nullptr);
    edens.push_back(r);
  }
  EXPECT_EQ(heap_.AllocateRegion(RegionType::kEden), nullptr);
  // Non-eden regions are still available.
  Region* survivor = heap_.AllocateRegion(RegionType::kSurvivor);
  EXPECT_NE(survivor, nullptr);
  for (Region* r : edens) {
    heap_.FreeRegion(r);
  }
  EXPECT_NE(heap_.AllocateRegion(RegionType::kEden), nullptr);
}

TEST_F(HeapTest, RegionForResolvesBothArenas) {
  Region* heap_region = heap_.AllocateRegion(RegionType::kOld);
  Region* cache_region = heap_.AllocateCacheRegion();
  ASSERT_NE(heap_region, nullptr);
  ASSERT_NE(cache_region, nullptr);
  EXPECT_EQ(heap_.RegionFor(heap_region->bottom() + 8), heap_region);
  EXPECT_EQ(heap_.RegionFor(cache_region->bottom() + 8), cache_region);
  EXPECT_EQ(heap_.RegionFor(0x1), nullptr);
  EXPECT_EQ(heap_region->device(), DeviceKind::kNvm);
  EXPECT_EQ(cache_region->device(), DeviceKind::kDram);
}

TEST_F(HeapTest, FreeListExhaustion) {
  std::vector<Region*> all;
  while (true) {
    Region* r = heap_.AllocateRegion(RegionType::kOld);
    if (r == nullptr) {
      break;
    }
    all.push_back(r);
  }
  EXPECT_EQ(all.size(), MakeConfig().heap_regions);
  EXPECT_EQ(heap_.free_region_count(), 0u);
  for (Region* r : all) {
    heap_.FreeRegion(r);
  }
  EXPECT_EQ(heap_.free_region_count(), MakeConfig().heap_regions);
}

TEST_F(HeapTest, ObjectIterationParsesRegion) {
  const KlassId node = heap_.klasses().RegisterRegular("N", 1, 8);
  Region* r = heap_.AllocateRegion(RegionType::kEden);
  std::vector<Address> expected;
  for (int i = 0; i < 10; ++i) {
    const Address a = r->Allocate(obj::SizeOf(heap_.klasses().Get(node), 0));
    obj::InitializeObject(a, heap_.klasses().Get(node), 0);
    expected.push_back(a);
  }
  std::vector<Address> seen;
  heap_.ForEachObjectInRegion(r, [&](Address a) { seen.push_back(a); });
  EXPECT_EQ(seen, expected);
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, RememberedSetTakeAndClear) {
  Region* r = heap_.AllocateRegion(RegionType::kSurvivor);
  r->remset().Add(0x10);
  r->remset().Add(0x20);
  EXPECT_EQ(r->remset().size(), 2u);
  const auto taken = r->remset().Take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(r->remset().size(), 0u);
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, VerifierCatchesDanglingReference) {
  const KlassId node = heap_.klasses().RegisterRegular("N", 1, 0);
  Region* r = heap_.AllocateRegion(RegionType::kEden);
  const Klass& k = heap_.klasses().Get(node);
  const Address a = r->Allocate(obj::SizeOf(k, 0));
  obj::InitializeObject(a, k, 0);
  // Point the ref field at a free region's memory.
  Region* other = heap_.AllocateRegion(RegionType::kOld);
  const Address dangling = other->bottom();
  heap_.FreeRegion(other);
  obj::StoreRef(obj::RefSlot(a, k, 0), dangling);

  Address root = a;
  HeapVerifier verifier(&heap_);
  std::string error;
  EXPECT_FALSE(verifier.VerifyReachable({&root}, &error));
  EXPECT_NE(error.find("free region"), std::string::npos);
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, VerifierCatchesStaleForwardingPointer) {
  const KlassId node = heap_.klasses().RegisterRegular("N", 0, 0);
  Region* r = heap_.AllocateRegion(RegionType::kEden);
  const Klass& k = heap_.klasses().Get(node);
  const Address a = r->Allocate(obj::SizeOf(k, 0));
  obj::InitializeObject(a, k, 0);
  obj::CasForward(a, 0x1000);  // Leftover forwarding pointer.
  Address root = a;
  HeapVerifier verifier(&heap_);
  std::string error;
  EXPECT_FALSE(verifier.VerifyReachable({&root}, &error));
  EXPECT_NE(error.find("forwarding"), std::string::npos);
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, HumongousRegionAllocation) {
  Region* r = heap_.AllocateHumongousRegion();
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->type(), RegionType::kHumongous);
  EXPECT_TRUE(r->is_old_like());
  heap_.FreeRegion(r);
}

TEST_F(HeapTest, RegionTypeNames) {
  EXPECT_STREQ(RegionTypeName(RegionType::kFree), "free");
  EXPECT_STREQ(RegionTypeName(RegionType::kEden), "eden");
  EXPECT_STREQ(RegionTypeName(RegionType::kSurvivor), "survivor");
  EXPECT_STREQ(RegionTypeName(RegionType::kOld), "old");
  EXPECT_STREQ(RegionTypeName(RegionType::kHumongous), "humongous");
  EXPECT_STREQ(RegionTypeName(RegionType::kWriteCache), "write-cache");
  EXPECT_STREQ(RegionTypeName(RegionType::kLarge), "large");
}

}  // namespace
}  // namespace nvmgc
