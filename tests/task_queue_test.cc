// Tests for the work-stealing task queues.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
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

// Real threads (run under the tsan preset): one owner pushes and pops while
// two thieves steal halves; every task must be taken exactly once.
TEST(TaskQueueThreadTest, ConcurrentStealHalfTakesEachTaskOnce) {
  constexpr Address kTasks = 20000;
  TaskQueue queue;
  std::atomic<bool> owner_done{false};
  std::atomic<size_t> stolen{0};
  std::vector<GcTask> owner_taken;
  std::vector<GcTask> thief_taken[2];

  std::vector<std::thread> thieves;
  for (std::vector<GcTask>& taken : thief_taken) {
    thieves.emplace_back([&queue, &owner_done, &stolen, &taken] {
      // Keep stealing until the owner has finished and the queue is drained.
      while (!owner_done.load(std::memory_order_acquire) || !queue.empty()) {
        const size_t n = queue.StealHalf(&taken);
        if (n == 0) {
          std::this_thread::yield();
        }
        stolen.fetch_add(n, std::memory_order_relaxed);
      }
    });
  }
  GcTask task;
  for (Address i = 1; i <= kTasks; ++i) {
    queue.Push({i, i});
    if (i % 3 == 0 && queue.Pop(&task)) {  // Interleave LIFO pops with pushes.
      owner_taken.push_back(task);
    }
  }
  // A third of the pushes were popped, so tasks remain: let the thieves in
  // before racing them for the rest.
  while (stolen.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  while (queue.Pop(&task)) {
    owner_taken.push_back(task);
  }
  owner_done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) {
    t.join();
  }

  std::vector<Address> all = Slots(owner_taken);
  for (const std::vector<GcTask>& taken : thief_taken) {
    for (const GcTask& t : taken) {
      EXPECT_EQ(t.ready_ns, t.slot);  // Tasks arrive whole.
      all.push_back(t.slot);
    }
  }
  EXPECT_EQ(stolen.load(), all.size() - owner_taken.size());
  EXPECT_GT(stolen.load(), 0u);
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kTasks);
  for (Address i = 0; i < kTasks; ++i) {
    ASSERT_EQ(all[i], i + 1);
  }
}

}  // namespace
}  // namespace nvmgc
