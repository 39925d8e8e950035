// Per-worker work-stealing task queues.
//
// A task is the address of a reference slot awaiting processing (exactly what
// HotSpot's GC task queues hold during evacuation), stamped with the
// simulated instant it was pushed. The owner pushes/pops at the bottom (LIFO
// — the depth-first order both the paper's Figure 4 flush tracking and G1's
// prefetching strategy depend on); thieves steal from the top (FIFO).
//
// A mutex-per-queue implementation is deliberately chosen over Chase-Lev:
// queue operation *cost* is modeled on the simulated clock, so host-side
// lock overhead does not distort results, while the semantics (LIFO owner
// order, FIFO stealing) stay exact and easy to verify.

#ifndef NVMGC_SRC_GC_TASK_QUEUE_H_
#define NVMGC_SRC_GC_TASK_QUEUE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "src/heap/object.h"

namespace nvmgc {

// A reference slot plus the simulated instant its pusher made it visible: a
// thief may steal it no earlier than that, however far behind its own clock
// is.
struct GcTask {
  Address slot = kNullAddress;
  uint64_t ready_ns = 0;
};

class TaskQueue {
 public:
  TaskQueue() = default;

  void Push(GcTask task) {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(task);
  }

  bool Pop(GcTask* task) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) {
      return false;
    }
    *task = tasks_.back();
    tasks_.pop_back();
    return true;
  }

  // Steals up to half of this queue (oldest first) into `out`; returns the
  // number stolen. Batching steals keeps thieves from ping-ponging one task
  // at a time when a victim holds a deep subtree.
  size_t StealHalf(std::vector<GcTask>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t take = (tasks_.size() + 1) / 2;
    for (size_t i = 0; i < take; ++i) {
      out->push_back(tasks_.front());
      tasks_.pop_front();
    }
    return take;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return tasks_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable std::mutex mu_;
  std::deque<GcTask> tasks_;
};

// The set of queues for one parallel phase, with steal-victim selection.
class TaskQueueSet {
 public:
  explicit TaskQueueSet(uint32_t n) : queues_(n) {}

  TaskQueue& queue(uint32_t i) { return queues_[i]; }
  uint32_t size() const { return static_cast<uint32_t>(queues_.size()); }

  // Moves up to half of the first non-empty victim's queue into `out`,
  // round-robining over the queues after `thief`'s own (never stealing from
  // it). Returns the number stolen, and the victim id through `victim_out`.
  size_t StealHalfFor(uint32_t thief, std::vector<GcTask>* out, uint32_t* victim_out) {
    const uint32_t n = size();
    for (uint32_t i = 1; i < n; ++i) {
      const uint32_t victim = (thief + i) % n;
      const size_t stolen = queues_[victim].StealHalf(out);
      if (stolen > 0) {
        *victim_out = victim;
        return stolen;
      }
    }
    return 0;
  }

  bool AllEmpty() const {
    for (const auto& q : queues_) {
      if (!q.empty()) {
        return false;
      }
    }
    return true;
  }

 private:
  std::vector<TaskQueue> queues_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_GC_TASK_QUEUE_H_
