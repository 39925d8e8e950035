// Analytical bandwidth model for a simulated memory device.
//
// The model computes the total bandwidth a device can sustain given the recent
// access mix. It encodes the three Optane phenomena the paper's design builds
// on:
//   1. asymmetric ceilings  (peak read >> peak write),
//   2. interference         (mixing writes into a read stream collapses the
//                            total well below the harmonic blend),
//   3. early write-side thread saturation (and mild decline beyond the knee).
// Non-temporal stores use a higher write ceiling and contribute less to the
// interference term, which is what makes the write cache's sequential
// write-back and asynchronous flushing profitable.

#ifndef NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_
#define NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_

#include <algorithm>
#include <cstdint>

#include "src/nvm/access.h"
#include "src/nvm/device_profile.h"

namespace nvmgc {

// Snapshot of the recent traffic mix on a device (fractions of bytes).
struct MixState {
  double write_fraction = 0.0;     // All writes / total.
  double nt_write_fraction = 0.0;  // Non-temporal writes / total.
  uint32_t active_threads = 1;
};

// The parts of the bandwidth formula that depend only on the active-thread
// count, which changes at phase boundaries, not per access
// (BandwidthModel::TermsFor). Each field is computed with the same
// floating-point operations, in the same order, as the formula computed them
// inline, so the total it yields is bit-identical.
struct ThreadTerms {
  uint32_t threads = 1;             // max(1, active threads).
  double read_ceiling_mbps = 0.0;   // ReadCeilingMbps(threads).
  double write_ramp = 0.0;          // min(threads, knee) / knee.
  bool over_knee = false;           // threads > write knee.
  double write_decline = 1.0;       // max(0.25, 1 - decline * (threads - knee)).
  // 1 / threads when threads is a power of two, else 0. Dividing by a power
  // of two and multiplying by its reciprocal round identically, so a caller
  // may use it in place of `/ threads`; for other counts it must divide.
  double inv_threads = 0.0;
};

class BandwidthModel {
 public:
  explicit BandwidthModel(const DeviceProfile& profile) : profile_(profile) {}

  // Total sustainable bandwidth (MB/s) for the given mix.
  double TotalBandwidthMbps(const MixState& mix) const {
    return TotalBandwidthMbps(mix.write_fraction, mix.nt_write_fraction,
                              TermsFor(mix.active_threads));
  }
  // The same total from precomputed thread terms: the one formula both
  // overloads (and MemoryDevice's per-access cost) evaluate.
  inline double TotalBandwidthMbps(double write_fraction, double nt_write_fraction,
                                   const ThreadTerms& terms) const;

  // The thread-count-dependent terms of the formula at `threads` (0 counts
  // as 1).
  ThreadTerms TermsFor(uint32_t threads) const;

  // Read-direction ceiling at `threads` concurrent readers (MB/s).
  double ReadCeilingMbps(uint32_t threads) const { return TermsFor(threads).read_ceiling_mbps; }

  // Write-direction ceiling at `threads` concurrent writers (MB/s);
  // `nt_share` in [0,1] is the fraction of write bytes using streaming stores.
  double WriteCeilingMbps(uint32_t threads, double nt_share) const {
    return WriteCeilingMbps(TermsFor(threads), nt_share);
  }

  // Multiplier (0,1] applied to a single access's bandwidth share based on its
  // own spatial pattern.
  double PatternFraction(AccessOp op, AccessPattern pattern) const {
    if (pattern == AccessPattern::kSequential) {
      return 1.0;
    }
    return op == AccessOp::kRead ? profile_.random_read_bw_fraction
                                 : profile_.random_write_bw_fraction;
  }

  // Fraction of the device total one tenant can claim when `active_tenants`
  // tenants have traffic in the recent ledger window. The documented curve
  // (tests assert it exactly):
  //
  //   share(f, T) = 1.0                                         for T <= 1
  //   share(f, T) = min(1, max(f, 1/T)) / (1 + kappa * (T - 1)) for T >= 2
  //
  // where f is the tenant's byte fraction of the window and kappa is
  // DeviceProfile::tenant_interference. The max(f, 1/T) floor guarantees an
  // idle-ish tenant still gets an equal share the moment it issues traffic
  // (the device schedules per-request, not per-history); the 1/(1+kappa(T-1))
  // factor is the efficiency the device loses to interleaving the streams —
  // the co-location penalty measured on real Optane (see PAPERS.md: HPC-NVM
  // characterization; Optane system evaluation).
  double TenantShareFraction(double own_fraction, uint32_t active_tenants) const;

  const DeviceProfile& profile() const { return profile_; }

 private:
  inline double WriteCeilingMbps(const ThreadTerms& terms, double nt_share) const;

  // Interference multiplier (0,1] for the given write mix.
  inline double MixInterference(double write_fraction, double nt_write_fraction) const;

  DeviceProfile profile_;
};

inline double BandwidthModel::WriteCeilingMbps(const ThreadTerms& terms, double nt_share) const {
  const double peak = profile_.peak_write_bw_mbps * (1.0 - nt_share) +
                      profile_.peak_write_nt_bw_mbps * nt_share;
  double ceiling = peak * terms.write_ramp;
  if (terms.over_knee) {
    // Beyond the knee additional writers degrade on-DIMM write combining.
    ceiling *= terms.write_decline;
  }
  return ceiling;
}

inline double BandwidthModel::MixInterference(double write_fraction,
                                              double nt_write_fraction) const {
  // Only the *mixing* of writes into reads is penalized: the term vanishes at
  // pure-read (w == 0) and pure-write (w == 1) phases, which is exactly why
  // the paper splits copy-and-traverse into read-mostly and write-only
  // sub-phases. Non-temporal write bytes count with a discount because they
  // bypass the cache hierarchy and the DIMM read-modify-write path.
  const double regular_w = std::max(0.0, write_fraction - nt_write_fraction);
  const double effective_w = regular_w + nt_write_fraction * profile_.nt_interference_discount;
  const double mix_term = 4.0 * effective_w * std::max(0.0, 1.0 - write_fraction);
  // Quadratic shape: a small residual write share costs little, but the
  // collapse deepens rapidly as reads and writes approach parity — matching
  // the measured Optane bandwidth-vs-mix curves, which fall off a cliff
  // between ~10% and ~50% writes.
  return 1.0 / (1.0 + profile_.mix_interference * mix_term * mix_term);
}

inline double BandwidthModel::TotalBandwidthMbps(double write_fraction, double nt_write_fraction,
                                                 const ThreadTerms& terms) const {
  const double w = std::clamp(write_fraction, 0.0, 1.0);
  const double nt_share_of_writes = w > 1e-9 ? std::clamp(nt_write_fraction / w, 0.0, 1.0)
                                             : 0.0;
  const double read_bw = terms.read_ceiling_mbps;
  const double write_bw = WriteCeilingMbps(terms, nt_share_of_writes);
  // Harmonic blend: time to move a byte is the mix-weighted time per direction.
  const double per_byte = (1.0 - w) / read_bw + w / write_bw;
  const double base = 1.0 / per_byte;
  return base * MixInterference(w, std::clamp(nt_write_fraction, 0.0, w));
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_NVM_BANDWIDTH_MODEL_H_
