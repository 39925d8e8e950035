// Allocation-site lifetime profiling.
//
// Workloads tag each distinct allocation statement with an AllocSiteId
// (RegisterSite), the mutator threads the tag through AllocRequest into the
// spare mark-word bits (obj::kSiteMask), and the collector attributes every
// evacuation-time copy back to its birth site. From births (mutator side) and
// survivals (GC side) the profiler infers deaths per pause — an object that
// was live at age `a` before the pause and was not copied died at age `a` —
// producing per-site lifetime histograms, tenuring rates, and NVM
// write-amplification: exactly the demographics needed to judge
// GenerationalOptions::tenure_threshold and to steer a pause-time SLO mode.
//
// Threading: births happen on the host (mutator) thread; GC workers fill
// worker-local SiteWorkerDelta vectors which the control thread merges and
// feeds to OnCycleEnd. The profiler itself is only ever mutated from the host
// / control thread, so it needs no locks. All accounting is host-side
// bookkeeping: it charges zero simulated time by construction.

#ifndef NVMGC_SRC_OBS_ALLOC_SITE_H_
#define NVMGC_SRC_OBS_ALLOC_SITE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/histogram.h"

namespace nvmgc {

// Index into the profiler's site table, carried in mark bits [5, 21).
// 0 is the always-present "(untagged)" site.
using AllocSiteId = uint32_t;
inline constexpr AllocSiteId kUntaggedSite = 0;

// Ages are 4 bits (obj::kAgeMask); population vectors index by age.
inline constexpr uint32_t kSiteAgeSlots = 16;
// Lifetime-histogram value recorded for objects that die after tenuring: their
// exact age is unknown, only that it exceeded every young age slot.
inline constexpr uint64_t kDiedTenuredAge = kSiteAgeSlots;

// Per-GC-worker evacuation counts for one site in one pause. Each worker owns
// a vector of these (indexed by site id); the control thread merges them.
struct SiteWorkerDelta {
  uint64_t copied_objects[kSiteAgeSlots] = {};    // young survivors, by pre-copy age
  uint64_t copied_bytes[kSiteAgeSlots] = {};
  uint64_t promoted_objects[kSiteAgeSlots] = {};  // subset of copied that tenured
  uint64_t promoted_bytes[kSiteAgeSlots] = {};
  uint64_t old_copy_objects = 0;  // already-tenured objects recompacted (major)
  uint64_t old_copy_bytes = 0;
  uint64_t nvm_copy_bytes = 0;    // copied bytes whose final home is the NVM arena
  uint64_t staged_bytes = 0;      // copied bytes staged through the write cache

  void Merge(const SiteWorkerDelta& other);
};

// One site's digest for a single pause, as retained by the flight recorder.
struct SitePauseDelta {
  AllocSiteId site = kUntaggedSite;
  std::string name;
  uint64_t survived_objects = 0;
  uint64_t survived_bytes = 0;
  uint64_t promoted_objects = 0;
  uint64_t promoted_bytes = 0;
  uint64_t died_objects = 0;
  uint64_t died_bytes = 0;
  uint64_t nvm_copy_bytes = 0;
  uint64_t staged_bytes = 0;
};

// Cumulative per-site demographics.
struct SiteStats {
  std::string name;
  uint64_t allocated_objects = 0;
  uint64_t allocated_bytes = 0;
  uint64_t large_objects = 0;  // humongous / large-object space: never copied
  uint64_t large_bytes = 0;
  uint64_t survived_objects = 0;
  uint64_t survived_bytes = 0;
  uint64_t promoted_objects = 0;
  uint64_t promoted_bytes = 0;
  uint64_t died_objects = 0;
  uint64_t died_bytes = 0;
  uint64_t nvm_copy_bytes = 0;
  uint64_t staged_bytes = 0;
  // Age-in-pauses at inferred death (kDiedTenuredAge for tenured deaths).
  Histogram lifetime;

  // Live young population by age; pop[0] is this epoch's eden births.
  uint64_t pop_objects[kSiteAgeSlots] = {};
  uint64_t pop_bytes[kSiteAgeSlots] = {};
  // Live tenured population (drained by major cycles; regions reclaimed by
  // ReclaimDeadOldRegions settle at the next major).
  uint64_t old_pop_objects = 0;
  uint64_t old_pop_bytes = 0;

  // promoted / allocated bytes: fraction of this site's allocation that ever
  // reaches NVM. High tenuring + short measured lifetime means the tenure
  // threshold is promoting prematurely for this site.
  double TenuringRate() const;
  // NVM bytes written per allocated byte (copies into the NVM arena, including
  // major-cycle recompaction). > tenuring rate means repeated old compaction.
  double NvmWriteAmplification() const;
};

class AllocSiteProfiler {
 public:
  AllocSiteProfiler();

  // Registers a site and returns its id. Returns the existing id if `name` is
  // already registered; returns kUntaggedSite once the 16-bit tag space'
  // practical cap (kMaxSites) is reached. Host thread only, outside pauses.
  AllocSiteId RegisterSite(std::string_view name);

  // Mutator-side birth accounting (host thread).
  void OnBirth(AllocSiteId site, size_t bytes);
  // Humongous / large-object allocations: counted, never part of the copied
  // young population.
  void OnLargeAlloc(AllocSiteId site, size_t bytes);

  // Control thread, end of pause: fold one merged delta vector (indexed by
  // site id, sized <= site_count()) into the cumulative stats, infer deaths,
  // and stage the per-pause digests retrievable via last_cycle().
  void OnCycleEnd(const std::vector<SiteWorkerDelta>& merged, bool is_major);

  size_t site_count() const { return sites_.size(); }
  const std::vector<SiteStats>& sites() const { return sites_; }
  const std::vector<SitePauseDelta>& last_cycle() const { return last_cycle_; }

  static constexpr size_t kMaxSites = 256;

 private:
  std::vector<SiteStats> sites_;
  std::vector<SitePauseDelta> last_cycle_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_OBS_ALLOC_SITE_H_
