// Tests for the work-stealing task queues.

#include <gtest/gtest.h>

#include <vector>

#include "src/gc/task_queue.h"

namespace nvmgc {
namespace {

std::vector<Address> Slots(const std::vector<GcTask>& tasks) {
  std::vector<Address> slots;
  for (const GcTask& t : tasks) {
    slots.push_back(t.slot);
  }
  return slots;
}

TEST(TaskQueueTest, LifoOwnerOrder) {
  TaskQueue q;
  q.Push({1, 10});
  q.Push({2, 20});
  q.Push({3, 30});
  GcTask t;
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.slot, 3u);
  EXPECT_EQ(t.ready_ns, 30u);  // The push instant travels with the slot.
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.slot, 2u);
  ASSERT_TRUE(q.Pop(&t));
  EXPECT_EQ(t.slot, 1u);
  EXPECT_FALSE(q.Pop(&t));
}

TEST(TaskQueueTest, StealHalfTakesOldestHalf) {
  TaskQueue q;
  for (Address i = 1; i <= 10; ++i) {
    q.Push({i, 100 * i});
  }
  std::vector<GcTask> out;
  EXPECT_EQ(q.StealHalf(&out), 5u);
  EXPECT_EQ(Slots(out), (std::vector<Address>{1, 2, 3, 4, 5}));
  EXPECT_EQ(out.back().ready_ns, 500u);
  EXPECT_EQ(q.size(), 5u);
}

TEST(TaskQueueTest, StealHalfOfOneTakesIt) {
  TaskQueue q;
  q.Push({42, 0});
  std::vector<GcTask> out;
  EXPECT_EQ(q.StealHalf(&out), 1u);
  EXPECT_TRUE(q.empty());
}

TEST(TaskQueueSetTest, StealHalfForDrainsVictims) {
  TaskQueueSet set(3);
  for (Address i = 0; i < 8; ++i) {
    set.queue(2).Push({i, 0});
  }
  set.queue(0).Push({99, 0});
  std::vector<GcTask> out;
  uint32_t victim = 0;
  // Queue 1 is empty, so the thief skips it; it never takes from its own.
  EXPECT_EQ(set.StealHalfFor(0, &out, &victim), 4u);
  EXPECT_EQ(victim, 2u);
  EXPECT_EQ(set.queue(2).size(), 4u);
  EXPECT_EQ(set.queue(0).size(), 1u);
  EXPECT_EQ(set.StealHalfFor(0, &out, &victim), 2u);
  EXPECT_EQ(set.StealHalfFor(0, &out, &victim), 1u);
  EXPECT_EQ(set.StealHalfFor(0, &out, &victim), 1u);
  // Every other queue is empty now: nothing to steal, and the thief's own
  // task stays put.
  EXPECT_EQ(set.StealHalfFor(0, &out, &victim), 0u);
  EXPECT_EQ(out.size(), 8u);
  EXPECT_EQ(set.queue(0).size(), 1u);
  EXPECT_FALSE(set.AllEmpty());
}

}  // namespace
}  // namespace nvmgc
