// Persistence model for a simulated NVM device.
//
// Real persistent memory only guarantees durability for cache lines that were
// explicitly flushed (CLWB/CLFLUSHOPT) and then ordered by a store fence
// (SFENCE). The PersistOrderingLedger tracks that state machine per 64-byte
// line of the device arena:
//
//   kClean --write--> kDirty --flush--> kFlushed --fence--> kDurable
//                       ^                  |
//                       +---- re-write ----+
//
// MemoryDevice::Access() marks written lines dirty; a PersistBatch charges
// the simulated flush cost per dirty line it touches and the fence cost when
// the batch is fenced, promoting its flushed lines to durable. The ledger can
// additionally be armed with a crash instant: at every fence that completes
// before that instant, the *current arena content* of the newly durable lines
// is copied into a crash image — "what the DIMM would hold after power loss
// at time T" under last-fenced-content semantics. Lines never fenced before T
// stay poison (0xCD) in the image.
//
// Model simplification (documented in DESIGN.md §8): we ignore spontaneous
// cache evictions, so a dirty-but-unflushed line is never durable. This makes
// the recovery checker strictly conservative — real hardware could only be
// *more* durable than the model claims.
//
// An unconfigured ledger is free: Access() performs one relaxed load and
// skips all tracking, so durability off costs nothing (ISSUE 6 acceptance
// criterion).

#ifndef NVMGC_SRC_NVM_PERSIST_LEDGER_H_
#define NVMGC_SRC_NVM_PERSIST_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/util/mapped_array.h"

namespace nvmgc {

class SimClock;

// Byte value crash images are initialized with; any line never captured at a
// fence keeps this pattern, so recovery code reading it sees garbage rather
// than silently-valid stale data.
inline constexpr uint8_t kPersistPoisonByte = 0xCD;

// The surviving NVM state at a simulated power-cut instant.
struct CrashImage {
  uint64_t base = 0;      // Host address the image mirrors.
  uint64_t bytes = 0;     // Arena length covered.
  uint64_t crash_ns = 0;  // Simulated instant power was cut.
  std::vector<uint8_t> image;    // Last-fenced content; poison where none.
  std::vector<uint8_t> durable;  // 1 per 64B line: content is durable.

  bool LineDurable(uint64_t offset) const { return durable[offset / 64] != 0; }
};

class PersistOrderingLedger {
 public:
  PersistOrderingLedger() = default;

  PersistOrderingLedger(const PersistOrderingLedger&) = delete;
  PersistOrderingLedger& operator=(const PersistOrderingLedger&) = delete;

  // Covers [base, base + bytes) with one state byte per 64B line and sets the
  // simulated flush/fence costs. Reconfiguring resets all lines to kClean.
  void Configure(uint64_t base, uint64_t bytes, uint64_t flush_line_ns, uint64_t fence_ns);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Marks every line overlapping [address, address + bytes) dirty. Called by
  // MemoryDevice::Access() for each write when the ledger is enabled.
  void NoteWrite(uint64_t address, uint32_t bytes);

  // Appends the arena byte offsets (line-aligned) of every currently-dirty
  // line overlapping [address, address + bytes). The collector uses this to
  // build the in-place-update redo log at commit time.
  void CollectDirtyLines(uint64_t address, uint64_t bytes,
                         std::vector<uint64_t>* line_offsets) const;

  // Arms crash capture: from now on, every fence whose completion time is
  // < crash_ns snapshots its newly durable lines into the image.
  void ArmCrashCapture(uint64_t crash_ns);
  bool capture_armed() const { return capture_armed_.load(std::memory_order_acquire); }

  // Surrenders the armed capture image (the ledger stays configured).
  CrashImage TakeCrashImage();

  uint64_t flush_line_ns() const { return flush_line_ns_; }
  uint64_t fence_ns() const { return fence_ns_; }
  uint64_t base() const { return base_; }
  uint64_t bytes() const { return bytes_; }

 private:
  friend class PersistBatch;

  enum LineState : uint8_t {
    kClean = 0,
    kDirty = 1,
    kFlushed = 2,
    kDurable = 3,
  };

  static_assert(kClean == 0, "zero pages must read as clean lines");

  std::atomic_ref<uint8_t> Line(uint64_t line) const {
    return std::atomic_ref<uint8_t>(lines_[line]);
  }

  // Promotes `line` kFlushed -> kDurable; returns true if this fence did the
  // promotion (a concurrent re-dirty loses the race and stays dirty).
  bool PromoteLine(uint64_t line);

  std::atomic<bool> enabled_{false};
  uint64_t base_ = 0;
  uint64_t bytes_ = 0;
  uint64_t flush_line_ns_ = 0;
  uint64_t fence_ns_ = 0;
  // One plain LineState byte per line, mapped from zero pages: a fresh
  // mapping is all kClean with no initialization pass, and only the lines a
  // run writes cost host memory. Accessed through Line().
  MappedArray<uint8_t> lines_;
  uint64_t line_count_ = 0;

  // Crash capture. Fences are rare (a handful per pause), so a mutex around
  // the capture step costs nothing measurable.
  std::atomic<bool> capture_armed_{false};
  std::mutex capture_mu_;
  CrashImage capture_;
};

// One CPU's in-flight flush set: CLWBs issued since the last SFENCE. Flushing
// marks lines kFlushed and charges flush_line_ns each; Fence() charges
// fence_ns, promotes the batch's lines to durable, and (when capture is
// armed) snapshots their content into the crash image. Matches SFENCE
// semantics: a fence only drains the flushes the issuing CPU performed, so
// each GC worker carries its own batch.
//
// All methods are no-ops when the ledger is disabled, so call sites need no
// durability guards of their own.
class PersistBatch {
 public:
  explicit PersistBatch(PersistOrderingLedger* ledger) : ledger_(ledger) {}

  // Flushes the dirty lines overlapping [address, address + bytes), charging
  // `clock` per line. Clean/flushed/durable lines cost nothing (CLWB of an
  // unmodified line is ~free and changes no state we track).
  void FlushRange(uint64_t address, uint64_t bytes, SimClock* clock);

  // Orders every flush in this batch: charges the fence cost and makes the
  // flushed lines durable. Resets the batch for reuse.
  void Fence(SimClock* clock);

  // --- Per-batch accumulated counters (survive across Fence calls) ---
  uint64_t flush_lines() const { return flush_lines_; }
  uint64_t fences() const { return fences_; }
  uint64_t persist_ns() const { return persist_ns_; }
  bool empty() const { return pending_.empty(); }

 private:
  PersistOrderingLedger* ledger_;
  std::vector<uint64_t> pending_;  // Line indices flushed since last fence.
  uint64_t flush_lines_ = 0;
  uint64_t fences_ = 0;
  uint64_t persist_ns_ = 0;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_PERSIST_LEDGER_H_
