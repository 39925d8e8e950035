#include "src/nvm/bandwidth_model.h"

#include <algorithm>

namespace nvmgc {

ThreadTerms BandwidthModel::TermsFor(uint32_t threads) const {
  ThreadTerms terms;
  const uint32_t t = std::max<uint32_t>(1, threads);
  terms.threads = t;

  const double read_knee = static_cast<double>(profile_.read_saturation_threads);
  const double read_ramp = std::min<double>(t, read_knee) / read_knee;
  terms.read_ceiling_mbps = profile_.peak_read_bw_mbps * read_ramp;

  const double write_knee = static_cast<double>(profile_.write_saturation_threads);
  terms.write_ramp = std::min<double>(t, write_knee) / write_knee;
  terms.over_knee = t > write_knee;
  if (terms.over_knee) {
    const double over = static_cast<double>(t) - write_knee;
    terms.write_decline = std::max(0.25, 1.0 - profile_.write_contention_decline * over);
  }

  if ((t & (t - 1)) == 0) {
    terms.inv_threads = 1.0 / static_cast<double>(t);
  }
  return terms;
}

double BandwidthModel::TenantShareFraction(double own_fraction, uint32_t active_tenants) const {
  if (active_tenants <= 1) {
    return 1.0;
  }
  const double t = static_cast<double>(active_tenants);
  const double f = std::clamp(own_fraction, 0.0, 1.0);
  const double share = std::min(1.0, std::max(f, 1.0 / t));
  return share / (1.0 + profile_.tenant_interference * (t - 1.0));
}

}  // namespace nvmgc
