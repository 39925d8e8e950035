// Software-prefetch tracking (Section 4.3 of the paper).
//
// When the collector pushes a reference onto its working stack it may issue a
// prefetch for the referent (and, with the header map enabled, for the probe
// line). The queue remembers the most recent prefetched addresses; when a
// later access hits one, the device charges a reduced miss latency. A real
// __builtin_prefetch is issued too, but the simulated effect is what the
// experiments measure.
//
// The outstanding prefetches live in a ring of kCapacity line slots, of which
// the first window() take part: Prefetch overwrites the slot at the cursor,
// and Consume clears the lowest-index slot within the window that holds the
// line (an empty slot holds line 0). Beside the ring, each slot is a bit in
// exactly one of kCapacity bucket masks, picked by a hash of the line it
// holds (empty slots in a mask of their own), so Consume checks only the
// slots of one bucket, lowest index first, instead of scanning the window; it
// returns what the scan returned, slot for slot.

#ifndef NVMGC_SRC_NVM_PREFETCH_QUEUE_H_
#define NVMGC_SRC_NVM_PREFETCH_QUEUE_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace nvmgc {

class PrefetchQueue {
 public:
  static constexpr size_t kCapacity = 64;  // Maximum outstanding-prefetch budget.
  static_assert(kCapacity == 64, "the slot index keeps one uint64_t bit per slot");

  PrefetchQueue() { Reset(); }

  void Reset() {
    for (auto& slot : ring_) {
      slot = 0;
    }
    for (auto& bucket : buckets_) {
      bucket = 0;
    }
    empty_ = ~uint64_t{0};
    next_ = 0;
    issued_ = 0;
    hits_ = 0;
  }

  // Sets the prefetch distance: how many outstanding prefetches are tracked
  // before the oldest is overwritten. A prefetch issued too far ahead of its
  // use is evicted by newer ones (distance too large for the access stream);
  // the adaptive policy tunes this from the observed hit rate. Clamped to
  // [1, kCapacity]; only meaningful to change between pauses (Reset clears
  // the ring each pause).
  void SetWindow(size_t window) {
    window_ = window < 1 ? 1 : (window > kCapacity ? kCapacity : window);
    window_mask_ = window_ == kCapacity ? ~uint64_t{0} : (uint64_t{1} << window_) - 1;
  }
  size_t window() const { return window_; }

  // Records a prefetch of the cache line containing `address`.
  void Prefetch(uint64_t address) {
    const uint64_t line = LineOf(address);
    const uint64_t bit = uint64_t{1} << next_;
    SlotsOf(ring_[next_]) &= ~bit;
    SlotsOf(line) |= bit;
    ring_[next_] = line;
    // (next_ + 1) % window_; the cursor may lie past a window that shrank.
    if (++next_ >= window_) {
      next_ %= window_;
    }
    ++issued_;
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(reinterpret_cast<const void*>(address), 0, 1);
#endif
  }

  // Returns true (and consumes the slot) if `address`'s line is still covered
  // by an outstanding prefetch.
  bool Consume(uint64_t address) {
    const uint64_t line = LineOf(address);
    uint64_t& slots = SlotsOf(line);
    for (uint64_t candidates = slots & window_mask_; candidates != 0;
         candidates &= candidates - 1) {
      const int i = std::countr_zero(candidates);
      if (ring_[i] == line) {
        const uint64_t bit = uint64_t{1} << i;
        slots &= ~bit;
        empty_ |= bit;
        ring_[i] = 0;
        ++hits_;
        return true;
      }
    }
    return false;
  }

  uint64_t issued() const { return issued_; }
  uint64_t hits() const { return hits_; }

 private:
  static uint64_t LineOf(uint64_t address) { return address >> 6; }

  // The mask holding the slots of `line`: empty_ for line 0, else its bucket.
  uint64_t& SlotsOf(uint64_t line) {
    return line == 0 ? empty_ : buckets_[(line * 0x9e3779b97f4a7c15ULL) >> 58];
  }

  uint64_t ring_[kCapacity];
  uint64_t buckets_[kCapacity];
  uint64_t empty_ = ~uint64_t{0};
  size_t window_ = kCapacity;
  uint64_t window_mask_ = ~uint64_t{0};
  size_t next_ = 0;
  uint64_t issued_ = 0;
  uint64_t hits_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_PREFETCH_QUEUE_H_
