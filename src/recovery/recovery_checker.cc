#include "src/recovery/recovery_checker.h"

#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "src/heap/heap_verifier.h"
#include "src/util/check.h"

namespace nvmgc {

namespace {

std::string Format(const char* fmt, uint64_t a, uint64_t b = 0) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, static_cast<unsigned long long>(a),
                static_cast<unsigned long long>(b));
  return buf;
}

bool AllPoison(const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != kPersistPoisonByte) {
      return false;
    }
  }
  return true;
}

}  // namespace

const char* RecoveryOutcomeName(RecoveryReport::Outcome outcome) {
  switch (outcome) {
    case RecoveryReport::Outcome::kRecovered:
      return "recovered";
    case RecoveryReport::Outcome::kNoCommittedState:
      return "no-committed-state";
    case RecoveryReport::Outcome::kCorrupt:
      return "corrupt";
  }
  return "?";
}

// One commit-record slot as read out of the crash image.
struct RecoveryChecker::SlotView {
  bool sealed = false;          // Seal matches this slot's header epoch.
  bool valid = false;           // Sealed and all checksums/bounds hold.
  CommitHeader header;
  const uint8_t* entries = nullptr;  // Region entries (inside the image).
  const uint8_t* roots = nullptr;    // Root offsets (inside the image).
  const uint8_t* redo = nullptr;     // Redo slot base (inside the image).
  std::string classification;
};

RecoveryChecker::RecoveryChecker(const HeapConfig& config, const KlassTable& klasses)
    : config_(config),
      layout_(ComputeCommitLayout(config)),
      nvm_(MakeOptaneProfile()),
      dram_(MakeDramProfile()) {
  if (config_.commit_area_bytes < layout_.total_bytes()) {
    config_.commit_area_bytes = layout_.total_bytes();
  }
  heap_ = std::make_unique<Heap>(config_, config_.heap_device == DeviceKind::kNvm ? &nvm_ : &dram_,
                                 &dram_);
  // Klass descriptors live in the runtime binary, not on the heap: mirror
  // the crashed run's table so klass ids resolve identically.
  for (KlassId id = 0; id < klasses.size(); ++id) {
    heap_->klasses().Register(klasses.Get(id));
  }
}

RecoveryReport RecoveryChecker::Check(const CrashImage& image) {
  RecoveryReport report;
  report.crash_ns = image.crash_ns;
  const size_t heap_bytes = heap_->heap_arena_bytes();
  const size_t region_bytes = config_.region_bytes;

  if (image.bytes != heap_bytes + heap_->commit_area_bytes()) {
    report.outcome = RecoveryReport::Outcome::kCorrupt;
    report.detail = Format("crash image covers %llu bytes but the configured heap needs %llu",
                           image.bytes, heap_bytes + heap_->commit_area_bytes());
    return report;
  }

  // --- 1. Parse both record slots and classify torn ones. ---
  SlotView slots[2];
  for (uint64_t s = 0; s < 2; ++s) {
    SlotView& slot = slots[s];
    const uint8_t* record = image.image.data() + heap_bytes + layout_.record_offset(s);
    uint64_t seal = 0;
    std::memcpy(&seal, record + layout_.record_slot_bytes - 8, sizeof(seal));
    std::memcpy(&slot.header, record, sizeof(CommitHeader));
    if (seal == 0) {
      slot.classification = "seal cleared: this slot's commit was in flight at the crash";
      continue;
    }
    if (AllPoison(record + layout_.record_slot_bytes - 8, 8)) {
      slot.classification = "slot never sealed before the crash";
      continue;
    }
    if (slot.header.magic != kCommitMagic || seal != SealValue(slot.header.epoch) ||
        slot.header.epoch % 2 != s) {
      slot.classification = Format("torn slot: seal %llx does not match the slot header", seal);
      continue;
    }
    slot.sealed = true;
    const size_t payload_bytes = sizeof(CommitHeader) +
                                 slot.header.region_count * sizeof(CommitRegionEntry) +
                                 slot.header.root_count * sizeof(uint64_t);
    if (slot.header.region_count > config_.heap_regions ||
        payload_bytes + 8 > layout_.record_slot_bytes ||
        slot.header.redo_entry_count * sizeof(RedoEntry) > layout_.redo_slot_bytes) {
      slot.classification = Format("sealed slot epoch %llu has impossible counts", slot.header.epoch);
      continue;
    }
    slot.entries = record + sizeof(CommitHeader);
    slot.roots = slot.entries + slot.header.region_count * sizeof(CommitRegionEntry);
    slot.redo = image.image.data() + heap_bytes + layout_.redo_offset(slot.header.epoch);
    if (Fnv1a(slot.entries, payload_bytes - sizeof(CommitHeader)) !=
        slot.header.payload_checksum) {
      slot.classification = Format("sealed slot epoch %llu has a payload checksum mismatch",
                                   slot.header.epoch);
      continue;
    }
    if (Fnv1a(slot.redo, slot.header.redo_entry_count * sizeof(RedoEntry)) !=
        slot.header.redo_checksum) {
      slot.classification =
          Format("sealed slot epoch %llu has a torn redo log", slot.header.epoch);
      continue;
    }
    slot.valid = true;
  }

  // The newest sealed slot is the recovery point. The protocol never touches
  // the previous epoch's slot while sealing the next, so a sealed-but-invalid
  // newest slot is a protocol violation, not a fallback case.
  const SlotView* chosen = nullptr;
  for (const SlotView& slot : slots) {
    if (slot.sealed && (chosen == nullptr || slot.header.epoch > chosen->header.epoch)) {
      chosen = &slot;
    }
  }
  if (chosen == nullptr) {
    report.outcome = RecoveryReport::Outcome::kNoCommittedState;
    report.detail = "no sealed commit: slot A: " + slots[0].classification +
                    "; slot B: " + slots[1].classification;
    return report;
  }
  if (!chosen->valid) {
    report.outcome = RecoveryReport::Outcome::kCorrupt;
    report.detail = chosen->classification;
    return report;
  }
  report.epoch = chosen->header.epoch;

  // --- 2. Restore the committed regions into a fresh heap. ---
  const Address new_base = heap_->heap_base();
  std::unordered_set<uint32_t> restored;
  for (uint64_t i = 0; i < chosen->header.region_count; ++i) {
    CommitRegionEntry e;
    std::memcpy(&e, chosen->entries + i * sizeof(CommitRegionEntry), sizeof(e));
    const RegionType type = static_cast<RegionType>(e.type);
    if (e.index >= config_.heap_regions || e.used_bytes > region_bytes ||
        (type != RegionType::kSurvivor && type != RegionType::kOld &&
         type != RegionType::kHumongous) ||
        !restored.insert(e.index).second) {
      report.outcome = RecoveryReport::Outcome::kCorrupt;
      report.detail = Format("commit region entry %llu is invalid (index %llu)", i, e.index);
      return report;
    }
    const uint64_t offset = uint64_t{e.index} * region_bytes;
    // Every line of a committed region's content must have been fenced before
    // the seal — a non-durable line here means the commit protocol lied.
    for (uint64_t line = offset; line < offset + e.used_bytes; line += 64) {
      if (!image.LineDurable(line)) {
        report.outcome = RecoveryReport::Outcome::kCorrupt;
        report.detail =
            Format("committed region %llu has non-durable content at arena offset %llu",
                   e.index, line);
        return report;
      }
    }
    heap_->RestoreRegion(e.index, type, e.used_bytes, e.gc_epoch);
    std::memcpy(reinterpret_cast<void*>(new_base + offset), image.image.data() + offset,
                e.used_bytes);
    ++report.regions_restored;
  }

  // --- 3. Replay the chosen epoch's content redo log (idempotent). ---
  for (uint64_t i = 0; i < chosen->header.redo_entry_count; ++i) {
    RedoEntry e;
    std::memcpy(&e, chosen->redo + i * sizeof(RedoEntry), sizeof(e));
    const uint64_t region_index = e.arena_offset / region_bytes;
    if (e.arena_offset % 64 != 0 || e.arena_offset >= heap_bytes ||
        restored.count(static_cast<uint32_t>(region_index)) == 0) {
      report.outcome = RecoveryReport::Outcome::kCorrupt;
      report.detail = Format("redo entry %llu targets arena offset %llu outside the commit",
                             i, e.arena_offset);
      return report;
    }
    std::memcpy(reinterpret_cast<void*>(new_base + e.arena_offset), e.content,
                sizeof(e.content));
    ++report.redo_entries_applied;
  }

  // --- 4. Rebase references and defensively parse every restored region
  // before handing the heap to the CHECK-happy verifier. ---
  const KlassTable& klasses = heap_->klasses();
  bool parse_ok = true;
  heap_->ForEachRegion([&](Region* r) {
    if (!parse_ok || r->type() == RegionType::kFree || r->type() == RegionType::kWriteCache) {
      return;
    }
    Address cursor = r->bottom();
    const Address top = r->top();
    while (cursor < top) {
      if (cursor + obj::kHeaderBytes > top) {
        report.detail = Format("truncated object header at arena offset %llu", cursor - new_base);
        parse_ok = false;
        return;
      }
      if (obj::IsForwarded(obj::LoadMark(cursor))) {
        report.detail =
            Format("forwarding pointer survived the commit at arena offset %llu", cursor - new_base);
        parse_ok = false;
        return;
      }
      const KlassId kid = obj::KlassIdOf(cursor);
      if (!klasses.IsValid(kid)) {
        report.detail = Format("invalid klass id %llu at arena offset %llu", kid, cursor - new_base);
        parse_ok = false;
        return;
      }
      const Klass& klass = klasses.Get(kid);
      const uint64_t len = klass.kind == KlassKind::kRegular ? 0 : obj::ArrayLength(cursor);
      const size_t size = obj::SizeOf(klass, len);
      if (size < obj::kHeaderBytes || cursor + size > top) {
        report.detail = Format("object of size %llu overruns region top at arena offset %llu",
                               size, cursor - new_base);
        parse_ok = false;
        return;
      }
      const size_t nslots = obj::RefSlotCount(cursor, klass);
      for (size_t s = 0; s < nslots; ++s) {
        const Address slot = obj::RefSlot(cursor, klass, s);
        const Address value = obj::LoadRef(slot);
        if (value == kNullAddress) {
          continue;
        }
        if (value < image.base || value >= image.base + heap_bytes) {
          report.detail = Format("reference outside the crashed heap arena at arena offset %llu",
                                 slot - new_base);
          parse_ok = false;
          return;
        }
        obj::StoreRef(slot, new_base + (value - image.base));
      }
      cursor += size;
      ++report.objects_parsed;
    }
    if (cursor != top) {
      report.detail =
          Format("region %llu does not parse exactly to its committed top", r->index());
      parse_ok = false;
    }
  });
  if (!parse_ok) {
    report.outcome = RecoveryReport::Outcome::kCorrupt;
    return report;
  }

  // --- 5. Roots, rebased the same way. ---
  roots_.clear();
  for (uint64_t i = 0; i < chosen->header.root_count; ++i) {
    uint64_t offset = 0;
    std::memcpy(&offset, chosen->roots + i * sizeof(uint64_t), sizeof(offset));
    if (offset == kNullRootOffset) {
      roots_.push_back(kNullAddress);
      continue;
    }
    if (offset >= heap_bytes) {
      report.outcome = RecoveryReport::Outcome::kCorrupt;
      report.detail = Format("root %llu points at arena offset %llu outside the heap", i, offset);
      return report;
    }
    roots_.push_back(new_base + offset);
    ++report.roots_restored;
  }

  // --- 6. Full verifier pass: reachability + parsability (remembered sets
  // are DRAM-only and rebuilt by a restarted runtime, so deliberately not
  // checked here). ---
  HeapVerifier verifier(heap_.get());
  std::vector<Address*> root_ptrs;
  root_ptrs.reserve(roots_.size());
  for (Address& r : roots_) {
    if (r != kNullAddress) {
      root_ptrs.push_back(&r);
    }
  }
  std::string error;
  if (!verifier.VerifyParsability(&error) || !verifier.VerifyReachable(root_ptrs, &error)) {
    report.outcome = RecoveryReport::Outcome::kCorrupt;
    report.detail = "verifier rejected the recovered heap: " + error;
    return report;
  }

  report.outcome = RecoveryReport::Outcome::kRecovered;
  return report;
}

}  // namespace nvmgc
