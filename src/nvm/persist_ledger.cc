#include "src/nvm/persist_ledger.h"

#include <algorithm>
#include <cstring>

#include "src/nvm/sim_clock.h"
#include "src/util/check.h"

namespace nvmgc {

void PersistOrderingLedger::Configure(uint64_t base, uint64_t bytes, uint64_t flush_line_ns,
                                      uint64_t fence_ns) {
  NVMGC_CHECK(bytes > 0);
  base_ = base;
  bytes_ = bytes;
  flush_line_ns_ = flush_line_ns;
  fence_ns_ = fence_ns;
  line_count_ = (bytes + 63) / 64;
  lines_ = MapZeroedArray<uint8_t>(line_count_, 1);
  enabled_.store(true, std::memory_order_release);
}

void PersistOrderingLedger::NoteWrite(uint64_t address, uint32_t bytes) {
  if (bytes == 0 || address + bytes <= base_ || address >= base_ + bytes_) {
    return;  // Outside the arena (mutator handles, DRAM structures, ...).
  }
  const uint64_t start = address > base_ ? address - base_ : 0;
  uint64_t end = address + bytes - base_;
  if (end > bytes_) {
    end = bytes_;
  }
  const uint64_t first = start / 64;
  const uint64_t last = (end - 1) / 64;
  for (uint64_t line = first; line <= last; ++line) {
    Line(line).store(kDirty, std::memory_order_relaxed);
  }
}

void PersistOrderingLedger::CollectDirtyLines(uint64_t address, uint64_t bytes,
                                              std::vector<uint64_t>* line_offsets) const {
  if (!enabled() || bytes == 0 || address + bytes <= base_ || address >= base_ + bytes_) {
    return;
  }
  const uint64_t start = address > base_ ? address - base_ : 0;
  uint64_t end = address + bytes - base_;
  if (end > bytes_) {
    end = bytes_;
  }
  for (uint64_t line = start / 64; line <= (end - 1) / 64; ++line) {
    if (Line(line).load(std::memory_order_relaxed) == kDirty) {
      line_offsets->push_back(line * 64);
    }
  }
}

bool PersistOrderingLedger::PromoteLine(uint64_t line) {
  uint8_t expected = kFlushed;
  return Line(line).compare_exchange_strong(expected, kDurable, std::memory_order_relaxed);
}

void PersistOrderingLedger::ArmCrashCapture(uint64_t crash_ns) {
  NVMGC_CHECK_MSG(enabled(), "ArmCrashCapture requires a configured ledger");
  std::lock_guard<std::mutex> lock(capture_mu_);
  capture_.base = base_;
  capture_.bytes = bytes_;
  capture_.crash_ns = crash_ns;
  capture_.image.assign(bytes_, kPersistPoisonByte);
  capture_.durable.assign(line_count_, 0);
  capture_armed_.store(true, std::memory_order_release);
}

CrashImage PersistOrderingLedger::TakeCrashImage() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  capture_armed_.store(false, std::memory_order_release);
  CrashImage image = std::move(capture_);
  capture_ = CrashImage{};
  return image;
}

void PersistBatch::FlushRange(uint64_t address, uint64_t bytes, SimClock* clock) {
  if (ledger_ == nullptr || !ledger_->enabled() || bytes == 0) {
    return;
  }
  const uint64_t base = ledger_->base_;
  const uint64_t arena = ledger_->bytes_;
  if (address + bytes <= base || address >= base + arena) {
    return;
  }
  const uint64_t start = address > base ? address - base : 0;
  uint64_t end = address + bytes - base;
  if (end > arena) {
    end = arena;
  }
  const uint64_t first = start / 64;
  const uint64_t last = (end - 1) / 64;
  uint64_t flushed = 0;
  for (uint64_t line = first; line <= last; ++line) {
    uint8_t expected = PersistOrderingLedger::kDirty;
    if (ledger_->Line(line).compare_exchange_strong(expected, PersistOrderingLedger::kFlushed,
                                                    std::memory_order_relaxed)) {
      pending_.push_back(line);
      ++flushed;
    }
  }
  if (flushed > 0) {
    const uint64_t cost = flushed * ledger_->flush_line_ns_;
    clock->Advance(cost);
    flush_lines_ += flushed;
    persist_ns_ += cost;
  }
}

void PersistBatch::Fence(SimClock* clock) {
  if (ledger_ == nullptr || !ledger_->enabled()) {
    return;
  }
  clock->Advance(ledger_->fence_ns_);
  ++fences_;
  persist_ns_ += ledger_->fence_ns_;

  // Promote this batch's flushed lines to durable. A line re-dirtied since
  // its flush stays dirty — its new content was never flushed, so the fence
  // has nothing to order for it.
  std::vector<uint64_t> promoted;
  promoted.reserve(pending_.size());
  for (uint64_t line : pending_) {
    if (ledger_->PromoteLine(line)) {
      promoted.push_back(line);
    }
  }
  pending_.clear();

  if (!promoted.empty() && ledger_->capture_armed() &&
      clock->now_ns() < ledger_->capture_.crash_ns) {
    // Power is still on at fence completion: the promoted lines' current
    // arena content is what the DIMM will hold at the crash instant (no
    // later fence can un-persist it; a later fence of the same line just
    // overwrites the captured content).
    std::lock_guard<std::mutex> lock(ledger_->capture_mu_);
    CrashImage& cap = ledger_->capture_;
    for (uint64_t line : promoted) {
      const uint64_t offset = line * 64;
      const uint64_t len = std::min<uint64_t>(64, ledger_->bytes_ - offset);
      std::memcpy(cap.image.data() + offset,
                  reinterpret_cast<const void*>(ledger_->base_ + offset), len);
      cap.durable[line] = 1;
    }
  }

  // Durable lines return to the trackable pool: a subsequent write makes
  // them dirty again via NoteWrite (kDirty overwrites kDurable).
}

}  // namespace nvmgc
