#include "src/policy/policy_signals.h"

namespace nvmgc {

namespace {
double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double PolicySignals::steal_rate() const { return Ratio(cycle.steals, cycle.refs_processed); }

double PolicySignals::flush_stall_fraction() const {
  return Ratio(cycle.writeback_phase_ns, cycle.pause_ns);
}

double PolicySignals::cache_overflow_fraction() const {
  return Ratio(cycle.cache_overflow_bytes,
               cycle.cache_bytes_staged + cycle.cache_overflow_bytes);
}

double PolicySignals::steal_taint_fraction() const {
  return Ratio(cycle.regions_steal_tainted,
               cycle.regions_flushed_sync + cycle.regions_flushed_async);
}

double PolicySignals::hm_overflow_rate() const {
  return Ratio(cycle.header_map_overflows,
               cycle.header_map_installs + cycle.header_map_overflows);
}

double PolicySignals::prefetch_hit_rate() const {
  return Ratio(cycle.prefetch_hits, cycle.prefetches_issued);
}

double PolicySignals::bandwidth_utilization() const {
  return read_model_mbps <= 0.0 ? 0.0 : read_total_mbps / read_model_mbps;
}

double PolicySignals::persist_stall_fraction() const {
  return Ratio(cycle.persist_ns, cycle.pause_ns);
}

double PolicySignals::fleet_stall_fraction() const {
  return Ratio(fleet_stall_ns, fleet_interval_ns);
}

PolicySignals CollectPolicySignals(const GcCycleStats& cycle, uint64_t pause_id,
                                   const DeviceTimeline* timeline) {
  PolicySignals s;
  s.pause_id = pause_id;
  s.cycle = cycle;
  if (timeline != nullptr) {
    const DeviceTimeline::PhaseAverages avg =
        timeline->AveragePhase(pause_id, GcPhaseKind::kRead);
    s.read_interleave = avg.interleave;
    s.read_mbps = avg.read_mbps;
    s.read_total_mbps = avg.read_mbps + avg.write_mbps;
    s.read_model_mbps = avg.model_mbps;
  }
  return s;
}

}  // namespace nvmgc
