// Heap recovery from a crash image.
//
// The RecoveryChecker plays the role of a restarted runtime: given the bytes
// that survived a simulated power cut (CrashImage), it
//
//   1. parses both commit-record slots, classifies torn slots, and picks the
//      newest sealed commit (the recovery point),
//   2. rebuilds a fresh Heap with the same geometry: restores every committed
//      region, replays the chosen epoch's content redo log, and rebases all
//      reference slots and roots from the crashed arena base to the new one,
//   3. defensively re-parses every restored region (valid klass ids, no
//      leftover forwarding pointers, object sizes that land exactly on the
//      region top) before handing the heap to the CHECK-happy HeapVerifier,
//   4. runs HeapVerifier reachability + parsability over the rebuilt heap.
//
// Recovery is GC-paced: the commit protocol only seals at pause ends, so
// mutator state since the last pause (eden content, handle updates) is lost
// by design and the recovery point is the last sealed epoch. DRAM-only
// structures — the header map, remembered sets, write-cache staging — are
// rebuilt or vacated, not recovered; remset completeness is deliberately NOT
// checked (a restarted runtime re-discovers old->young edges because the
// recovered heap has no young regions at all).
//
// Every failure mode produces a classified RecoveryReport — a torn
// pre-commit state is kNoCommittedState/fallback with a diagnostic, an
// inconsistency that should be impossible under the protocol is kCorrupt
// with a diagnostic. Silent corruption is the one outcome this class exists
// to rule out.

#ifndef NVMGC_SRC_RECOVERY_RECOVERY_CHECKER_H_
#define NVMGC_SRC_RECOVERY_RECOVERY_CHECKER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/heap/heap.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/persist_ledger.h"
#include "src/recovery/commit_record.h"

namespace nvmgc {

struct RecoveryReport {
  enum class Outcome {
    kRecovered,         // Heap rebuilt and verified from a sealed commit.
    kNoCommittedState,  // Power cut before the first commit ever sealed.
    kCorrupt,           // Protocol violation: sealed state failed validation.
  };

  Outcome outcome = Outcome::kCorrupt;
  uint64_t crash_ns = 0;
  uint64_t epoch = 0;  // The recovered commit's GC epoch (kRecovered only).
  size_t regions_restored = 0;
  size_t objects_parsed = 0;
  size_t redo_entries_applied = 0;
  size_t roots_restored = 0;  // Non-null roots surviving in the commit.
  std::string detail;         // Torn-state classification / corruption diagnostic.

  bool recovered() const { return outcome == Outcome::kRecovered; }
};

class RecoveryChecker {
 public:
  // `config` must match the crashed Vm's (a real runtime would read it from
  // its own startup flags); `klasses` is the crashed run's klass table,
  // mirrored into the rebuilt heap (klass descriptors live in the runtime
  // binary, not on the heap).
  RecoveryChecker(const HeapConfig& config, const KlassTable& klasses);

  RecoveryChecker(const RecoveryChecker&) = delete;
  RecoveryChecker& operator=(const RecoveryChecker&) = delete;

  // Attempts recovery from `image`. The rebuilt heap and roots stay
  // accessible through recovered_heap()/recovered_roots() after a
  // kRecovered return.
  RecoveryReport Check(const CrashImage& image);

  Heap* recovered_heap() { return heap_.get(); }
  const std::vector<Address>& recovered_roots() const { return roots_; }

 private:
  struct SlotView;  // One parsed commit-record slot (in .cc).

  HeapConfig config_;
  CommitLayout layout_;
  MemoryDevice nvm_;
  MemoryDevice dram_;
  std::unique_ptr<Heap> heap_;
  std::vector<Address> roots_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_RECOVERY_RECOVERY_CHECKER_H_
