#include "src/obs/alloc_site.h"

#include <algorithm>

#include "src/util/check.h"

namespace nvmgc {

namespace {

uint64_t ClampedSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

}  // namespace

void SiteWorkerDelta::Merge(const SiteWorkerDelta& other) {
  for (uint32_t a = 0; a < kSiteAgeSlots; ++a) {
    copied_objects[a] += other.copied_objects[a];
    copied_bytes[a] += other.copied_bytes[a];
    promoted_objects[a] += other.promoted_objects[a];
    promoted_bytes[a] += other.promoted_bytes[a];
  }
  old_copy_objects += other.old_copy_objects;
  old_copy_bytes += other.old_copy_bytes;
  nvm_copy_bytes += other.nvm_copy_bytes;
  staged_bytes += other.staged_bytes;
}

double SiteStats::TenuringRate() const {
  return allocated_bytes == 0
             ? 0.0
             : static_cast<double>(promoted_bytes) / static_cast<double>(allocated_bytes);
}

double SiteStats::NvmWriteAmplification() const {
  return allocated_bytes == 0
             ? 0.0
             : static_cast<double>(nvm_copy_bytes) / static_cast<double>(allocated_bytes);
}

AllocSiteProfiler::AllocSiteProfiler() {
  sites_.emplace_back();
  sites_[0].name = "(untagged)";
}

AllocSiteId AllocSiteProfiler::RegisterSite(std::string_view name) {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].name == name) return static_cast<AllocSiteId>(i);
  }
  if (sites_.size() >= kMaxSites) return kUntaggedSite;
  sites_.emplace_back();
  sites_.back().name = std::string(name);
  return static_cast<AllocSiteId>(sites_.size() - 1);
}

void AllocSiteProfiler::OnBirth(AllocSiteId site, size_t bytes) {
  if (site >= sites_.size()) site = kUntaggedSite;
  SiteStats& s = sites_[site];
  s.allocated_objects += 1;
  s.allocated_bytes += bytes;
  s.pop_objects[0] += 1;
  s.pop_bytes[0] += bytes;
}

void AllocSiteProfiler::OnLargeAlloc(AllocSiteId site, size_t bytes) {
  if (site >= sites_.size()) site = kUntaggedSite;
  SiteStats& s = sites_[site];
  s.allocated_objects += 1;
  s.allocated_bytes += bytes;
  s.large_objects += 1;
  s.large_bytes += bytes;
}

void AllocSiteProfiler::OnCycleEnd(const std::vector<SiteWorkerDelta>& merged, bool is_major) {
  NVMGC_CHECK(merged.size() <= sites_.size());
  last_cycle_.clear();
  for (size_t i = 0; i < sites_.size(); ++i) {
    SiteStats& s = sites_[i];
    static const SiteWorkerDelta kEmpty;
    const SiteWorkerDelta& d = i < merged.size() ? merged[i] : kEmpty;

    SitePauseDelta pause;
    pause.site = static_cast<AllocSiteId>(i);
    pause.name = s.name;
    pause.nvm_copy_bytes = d.nvm_copy_bytes;
    pause.staged_bytes = d.staged_bytes;

    // Every collected young object was either copied (survived) or died at
    // the age it had reached. Survivors age up in the population; promoted
    // survivors move to the tenured population.
    uint64_t new_pop_objects[kSiteAgeSlots] = {};
    uint64_t new_pop_bytes[kSiteAgeSlots] = {};
    for (uint32_t a = 0; a < kSiteAgeSlots; ++a) {
      const uint64_t copied_o = std::min(d.copied_objects[a], s.pop_objects[a]);
      const uint64_t copied_b = std::min(d.copied_bytes[a], s.pop_bytes[a]);
      const uint64_t died_o = ClampedSub(s.pop_objects[a], d.copied_objects[a]);
      const uint64_t died_b = ClampedSub(s.pop_bytes[a], d.copied_bytes[a]);
      if (died_o > 0) s.lifetime.RecordMany(a, died_o);
      pause.died_objects += died_o;
      pause.died_bytes += died_b;
      const uint64_t promoted_o = std::min(d.promoted_objects[a], copied_o);
      const uint64_t promoted_b = std::min(d.promoted_bytes[a], copied_b);
      pause.survived_objects += d.copied_objects[a];
      pause.survived_bytes += d.copied_bytes[a];
      pause.promoted_objects += promoted_o;
      pause.promoted_bytes += promoted_b;
      const uint32_t next = std::min(a + 1, kSiteAgeSlots - 1);
      new_pop_objects[next] += copied_o - promoted_o;
      new_pop_bytes[next] += copied_b - promoted_b;
      s.old_pop_objects += promoted_o;
      s.old_pop_bytes += promoted_b;
    }
    std::copy(new_pop_objects, new_pop_objects + kSiteAgeSlots, s.pop_objects);
    std::copy(new_pop_bytes, new_pop_bytes + kSiteAgeSlots, s.pop_bytes);

    // A major cycle evacuates the whole tenured generation: anything not
    // recompacted died after tenuring (exact age unknown; recorded at the
    // kDiedTenuredAge sentinel). Regions freed early by ReclaimDeadOldRegions
    // settle here too, at the next major.
    if (is_major) {
      const uint64_t old_died_o = ClampedSub(s.old_pop_objects, d.old_copy_objects);
      const uint64_t old_died_b = ClampedSub(s.old_pop_bytes, d.old_copy_bytes);
      if (old_died_o > 0) s.lifetime.RecordMany(kDiedTenuredAge, old_died_o);
      pause.died_objects += old_died_o;
      pause.died_bytes += old_died_b;
      s.old_pop_objects = std::min(s.old_pop_objects, d.old_copy_objects);
      s.old_pop_bytes = std::min(s.old_pop_bytes, d.old_copy_bytes);
    }
    pause.survived_objects += d.old_copy_objects;
    pause.survived_bytes += d.old_copy_bytes;

    s.survived_objects += pause.survived_objects;
    s.survived_bytes += pause.survived_bytes;
    s.promoted_objects += pause.promoted_objects;
    s.promoted_bytes += pause.promoted_bytes;
    s.died_objects += pause.died_objects;
    s.died_bytes += pause.died_bytes;
    s.nvm_copy_bytes += d.nvm_copy_bytes;
    s.staged_bytes += d.staged_bytes;

    if (pause.survived_objects != 0 || pause.died_objects != 0 ||
        pause.nvm_copy_bytes != 0 || pause.staged_bytes != 0) {
      last_cycle_.push_back(std::move(pause));
    }
  }
}

}  // namespace nvmgc
