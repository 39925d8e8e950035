// Unit tests for the NVM device simulation substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "src/nvm/bandwidth_ledger.h"
#include "src/nvm/bandwidth_model.h"
#include "src/nvm/device_profile.h"
#include "src/nvm/memory_device.h"
#include "src/nvm/prefetch_queue.h"
#include "src/nvm/sim_clock.h"
#include "src/util/random.h"

namespace nvmgc {
namespace {

TEST(DeviceProfileTest, OptaneIsSlowerThanDramInLatency) {
  const DeviceProfile dram = MakeDramProfile();
  const DeviceProfile nvm = MakeOptaneProfile();
  EXPECT_GT(nvm.random_read_latency_ns, 2 * dram.random_read_latency_ns);
  EXPECT_GT(nvm.random_write_latency_ns, dram.random_write_latency_ns);
}

TEST(DeviceProfileTest, OptaneBandwidthIsAsymmetric) {
  const DeviceProfile nvm = MakeOptaneProfile();
  EXPECT_GT(nvm.peak_read_bw_mbps, 2.0 * nvm.peak_write_bw_mbps);
  EXPECT_GT(nvm.peak_write_nt_bw_mbps, nvm.peak_write_bw_mbps);
}

TEST(BandwidthModelTest, PureReadReachesCeiling) {
  BandwidthModel model(MakeOptaneProfile());
  MixState mix;
  mix.write_fraction = 0.0;
  mix.active_threads = model.profile().read_saturation_threads;
  EXPECT_NEAR(model.TotalBandwidthMbps(mix), model.profile().peak_read_bw_mbps, 1.0);
}

TEST(BandwidthModelTest, PureNonTemporalWriteReachesNtCeiling) {
  BandwidthModel model(MakeOptaneProfile());
  MixState mix;
  mix.write_fraction = 1.0;
  mix.nt_write_fraction = 1.0;
  mix.active_threads = 4;
  EXPECT_NEAR(model.TotalBandwidthMbps(mix), model.profile().peak_write_nt_bw_mbps, 1.0);
}

TEST(BandwidthModelTest, MixedWorkloadCollapsesOnNvm) {
  BandwidthModel model(MakeOptaneProfile());
  MixState pure_read{0.0, 0.0, 8};
  MixState mixed{0.3, 0.0, 8};
  const double read_bw = model.TotalBandwidthMbps(pure_read);
  const double mixed_bw = model.TotalBandwidthMbps(mixed);
  // The paper's core observation: a modest write share destroys total NVM
  // bandwidth far beyond the harmonic blend.
  EXPECT_LT(mixed_bw, 0.35 * read_bw);
}

TEST(BandwidthModelTest, MixedWorkloadBarelyAffectsDram) {
  BandwidthModel model(MakeDramProfile());
  MixState pure_read{0.0, 0.0, 8};
  MixState mixed{0.3, 0.0, 8};
  const double ratio = model.TotalBandwidthMbps(mixed) / model.TotalBandwidthMbps(pure_read);
  EXPECT_GT(ratio, 0.55);
}

TEST(BandwidthModelTest, NonTemporalWritesInterfereLess) {
  BandwidthModel model(MakeOptaneProfile());
  MixState regular{0.3, 0.0, 8};
  MixState nt{0.3, 0.3, 8};
  EXPECT_GT(model.TotalBandwidthMbps(nt), 1.3 * model.TotalBandwidthMbps(regular));
}

TEST(BandwidthModelTest, NvmWriteSideSaturatesEarly) {
  BandwidthModel model(MakeOptaneProfile());
  const double bw4 = model.WriteCeilingMbps(4, 0.0);
  const double bw8 = model.WriteCeilingMbps(8, 0.0);
  const double bw56 = model.WriteCeilingMbps(56, 0.0);
  EXPECT_NEAR(bw4, model.profile().peak_write_bw_mbps, 1.0);
  EXPECT_LE(bw8, bw4);
  EXPECT_LT(bw56, bw8);  // Contention decline beyond the knee.
}

TEST(BandwidthModelTest, DramReadScalesWithThreads) {
  BandwidthModel model(MakeDramProfile());
  EXPECT_GT(model.ReadCeilingMbps(16), 1.9 * model.ReadCeilingMbps(8));
}

// The bandwidth formula as it read before ThreadTerms split out its
// thread-count terms, kept verbatim as the reference the split must match bit
// for bit.
double RefReadCeilingMbps(const DeviceProfile& p, uint32_t threads) {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double knee = static_cast<double>(p.read_saturation_threads);
  const double ramp = std::min<double>(t, knee) / knee;
  return p.peak_read_bw_mbps * ramp;
}

double RefWriteCeilingMbps(const DeviceProfile& p, uint32_t threads, double nt_share) {
  const uint32_t t = std::max<uint32_t>(1, threads);
  const double peak =
      p.peak_write_bw_mbps * (1.0 - nt_share) + p.peak_write_nt_bw_mbps * nt_share;
  const double knee = static_cast<double>(p.write_saturation_threads);
  const double ramp = std::min<double>(t, knee) / knee;
  double ceiling = peak * ramp;
  if (t > knee) {
    const double over = static_cast<double>(t) - knee;
    ceiling *= std::max(0.25, 1.0 - p.write_contention_decline * over);
  }
  return ceiling;
}

double RefMixInterference(const DeviceProfile& p, double write_fraction,
                          double nt_write_fraction) {
  const double regular_w = std::max(0.0, write_fraction - nt_write_fraction);
  const double effective_w = regular_w + nt_write_fraction * p.nt_interference_discount;
  const double mix_term = 4.0 * effective_w * std::max(0.0, 1.0 - write_fraction);
  return 1.0 / (1.0 + p.mix_interference * mix_term * mix_term);
}

double RefTotalBandwidthMbps(const DeviceProfile& p, const MixState& mix) {
  const double w = std::clamp(mix.write_fraction, 0.0, 1.0);
  const double nt_share_of_writes = w > 1e-9 ? std::clamp(mix.nt_write_fraction / w, 0.0, 1.0)
                                             : 0.0;
  const double read_bw = RefReadCeilingMbps(p, mix.active_threads);
  const double write_bw = RefWriteCeilingMbps(p, mix.active_threads, nt_share_of_writes);
  const double per_byte = (1.0 - w) / read_bw + w / write_bw;
  const double base = 1.0 / per_byte;
  return base * RefMixInterference(p, w, std::clamp(mix.nt_write_fraction, 0.0, w));
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

TEST(BandwidthModelTest, ThreadTermsMatchReferenceFormula) {
  // Byte counts as the ledger window holds them: W writes (N of them
  // non-temporal) out of `total`. The grid covers an empty window, pure
  // writes (W == total), a write share below the 1e-9 cutoff, N == W, and
  // totals whose fractions round.
  const std::vector<uint64_t> totals = {0, 1, 3, 7, 10, 64, 1000, 4097, 999'999'937,
                                        3'000'000'001};
  std::vector<MixState> mixes;
  for (const uint64_t total : totals) {
    std::vector<uint64_t> writes = {0, 1, total / 3, total / 2, total - total / 10, total};
    for (const uint64_t w : writes) {
      if (w > total) {
        continue;
      }
      for (const uint64_t n : {uint64_t{0}, uint64_t{1}, w / 3, w / 2, w - w / 7, w}) {
        if (n > w) {
          continue;
        }
        MixState mix;
        if (total > 0) {
          mix.write_fraction = static_cast<double>(w) / static_cast<double>(total);
          mix.nt_write_fraction = static_cast<double>(n) / static_cast<double>(total);
        }
        mixes.push_back(mix);
      }
    }
  }
  // Out-of-range fractions, which the formula clamps (nt/w above 1 among
  // them).
  mixes.push_back(MixState{1.25, 0.5, 1});
  mixes.push_back(MixState{-0.1, 0.0, 1});
  mixes.push_back(MixState{0.4, 0.6, 1});
  bool saw_tiny_w = false;
  bool saw_full_nt = false;
  for (const MixState& mix : mixes) {
    saw_tiny_w |= mix.write_fraction > 0.0 && mix.write_fraction < 1e-9;
    saw_full_nt |= mix.write_fraction > 0.0 && mix.nt_write_fraction == mix.write_fraction;
  }
  EXPECT_TRUE(saw_tiny_w);
  EXPECT_TRUE(saw_full_nt);

  for (const DeviceProfile& profile : {MakeOptaneProfile(), MakeDramProfile()}) {
    const BandwidthModel model(profile);
    for (uint32_t threads = 0; threads <= 64; ++threads) {
      SCOPED_TRACE(::testing::Message() << profile.name << " threads=" << threads);
      const ThreadTerms terms = model.TermsFor(threads);
      const uint32_t t = std::max<uint32_t>(1, threads);
      ASSERT_EQ(terms.threads, t);
      ASSERT_TRUE(SameBits(model.ReadCeilingMbps(threads), RefReadCeilingMbps(profile, threads)));
      for (const double nt_share : {0.0, 0.3, 1.0 / 3.0, 1.0}) {
        ASSERT_TRUE(SameBits(model.WriteCeilingMbps(threads, nt_share),
                             RefWriteCeilingMbps(profile, threads, nt_share)));
      }
      const bool power_of_two = (t & (t - 1)) == 0;
      ASSERT_EQ(terms.inv_threads != 0.0, power_of_two);
      for (MixState mix : mixes) {
        mix.active_threads = threads;
        const double ref = RefTotalBandwidthMbps(profile, mix);
        ASSERT_TRUE(SameBits(model.TotalBandwidthMbps(mix), ref))
            << "w=" << mix.write_fraction << " nt=" << mix.nt_write_fraction;
        ASSERT_TRUE(SameBits(
            model.TotalBandwidthMbps(mix.write_fraction, mix.nt_write_fraction, terms), ref));
        if (power_of_two) {
          // The per-thread share MemoryDevice charges: the reciprocal stands
          // in for the division only where the two round alike.
          ASSERT_TRUE(SameBits(ref * terms.inv_threads, ref / static_cast<double>(t)));
        }
      }
    }
  }
}

TEST(SimClockTest, AdvanceAndSync) {
  SimClock clock;
  EXPECT_EQ(clock.now_ns(), 0u);
  clock.Advance(150);
  EXPECT_EQ(clock.now_ns(), 150u);
  clock.SyncForwardTo(100);
  EXPECT_EQ(clock.now_ns(), 150u);
  clock.SyncForwardTo(400);
  EXPECT_EQ(clock.now_ns(), 400u);
}

TEST(MemoryDeviceTest, RandomReadPaysLatency) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  const uint64_t cost = dev.Access(&clock, RandomRead(0x1000, 64));
  EXPECT_GE(cost, dev.profile().random_read_latency_ns);
  EXPECT_EQ(clock.now_ns(), cost);
}

TEST(MemoryDeviceTest, PrefetchedReadIsCheaper) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  AccessDescriptor plain = RandomRead(0x1000, 64);
  AccessDescriptor prefetched = plain;
  prefetched.prefetched = true;
  EXPECT_LT(dev.CostNs(0, prefetched), dev.CostNs(0, plain) / 2);
}

TEST(MemoryDeviceTest, SequentialBigAccessDominatedByBandwidth) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  const uint64_t small = dev.Access(&clock, SequentialRead(0x0, 64));
  const uint64_t big = dev.Access(&clock, SequentialRead(0x0, 1 << 20));
  EXPECT_GT(big, 100 * small);
}

TEST(MemoryDeviceTest, CountersTrackTraffic) {
  MemoryDevice dev(MakeDramProfile());
  SimClock clock;
  dev.Access(&clock, RandomRead(0x0, 128));
  dev.Access(&clock, NonTemporalWrite(0x40, 256));
  const DeviceCounters c = dev.counters();
  EXPECT_EQ(c.read_bytes, 128u);
  EXPECT_EQ(c.write_bytes, 256u);
  EXPECT_EQ(c.nt_write_bytes, 256u);
  EXPECT_EQ(c.read_ops, 1u);
  EXPECT_EQ(c.write_ops, 1u);
}

TEST(MemoryDeviceTest, MoreActiveThreadsShrinkPerThreadShare) {
  MemoryDevice dev(MakeOptaneProfile());
  // Saturate write mix so total bandwidth stops scaling with threads.
  SimClock warm;
  for (int i = 0; i < 200; ++i) {
    dev.Access(&warm, SequentialWrite(0x0, 4096));
  }
  AccessDescriptor big_write = SequentialWrite(0x0, 1 << 20);
  const uint64_t at8 = [&] {
    ScopedDeviceActivity activity(&dev, 8);
    return dev.CostNs(warm.now_ns(), big_write);
  }();
  const uint64_t at56 = [&] {
    ScopedDeviceActivity activity(&dev, 56);
    return dev.CostNs(warm.now_ns(), big_write);
  }();
  EXPECT_GT(at56, 3 * at8);
}

// A seeded stream of about 100k accesses through Access: reads, writes and
// non-temporal writes, random and sequential, 1-8 active logical threads whose
// clocks lag one another and jump far enough to recycle ledger slots, and two
// bound tenants (so the contention term is live). The constants were recorded
// from the charge path that rescanned the ledger window on every sample: a
// bookkeeping change must not move any of them.
TEST(MemoryDeviceTest, ChargedNsStreamUnchanged) {
  constexpr uint64_t kBase = uint64_t{1} << 32;
  constexpr uint64_t kTenantBytes = 2 * 1024 * 1024;
  constexpr uint32_t kThreads = 8;
  MemoryDevice dev(MakeOptaneProfile());
  dev.BindTenantRange(0, kBase, kTenantBytes);
  dev.BindTenantRange(1, kBase + kTenantBytes, kTenantBytes);
  const uint64_t jump_ns = 70 * dev.ledger().bucket_ns();

  Random rng(20261017);
  SimClock clocks[kThreads];
  uint64_t stream_end[kThreads] = {};  // Next address of each thread's write stream.
  uint32_t active = 0;
  uint64_t charged_ns = 0;
  uint64_t cost_hash = 0;
  for (int i = 0; i < 100'000; ++i) {
    if (i % 2000 == 0) {
      // A phase boundary: the threads meet at a barrier and a new number of
      // them issue the next phase's traffic.
      dev.RemoveActiveThreads(active);
      active = 1 + static_cast<uint32_t>(rng.NextBelow(kThreads));
      dev.AddActiveThreads(active);
      uint64_t latest = 0;
      for (const SimClock& c : clocks) {
        latest = std::max(latest, c.now_ns());
      }
      for (SimClock& c : clocks) {
        c.SyncForwardTo(latest);
      }
    }
    const uint32_t t = static_cast<uint32_t>(rng.NextBelow(active));
    SimClock& clock = clocks[t];
    if (rng.NextBool(0.002)) {
      // A far jump ahead or behind the other clocks: its charges recycle
      // ring slots that the current mix window counts.
      clock.SetTime(rng.NextBool(0.5) ? clock.now_ns() + jump_ns
                                      : clock.now_ns() - std::min(clock.now_ns(), jump_ns));
    }
    const uint64_t tenant_base = kBase + rng.NextBelow(2) * kTenantBytes;
    const uint64_t address = tenant_base + rng.NextBelow((kTenantBytes - 8192) / 8) * 8;
    AccessDescriptor d;
    switch (rng.NextBelow(7)) {
      case 0:
        d = RandomRead(address, 8u << rng.NextBelow(4));
        break;
      case 1:
        d = RandomRead(address, 64);
        d.prefetched = true;
        break;
      case 2:
        d = SequentialRead(address, 64u << rng.NextBelow(7));
        break;
      case 3:
        d = RandomWrite(address, 8u << rng.NextBelow(4));
        break;
      case 4:
      case 5: {
        const uint32_t bytes = 64u << rng.NextBelow(5);
        if (stream_end[t] == 0 || rng.NextBool(0.05)) {
          stream_end[t] = address;
        }
        d = rng.NextBool(0.5) ? SequentialWrite(stream_end[t], bytes)
                              : NonTemporalWrite(stream_end[t], bytes);
        stream_end[t] = stream_end[t] + bytes < kBase + 2 * kTenantBytes ? stream_end[t] + bytes
                                                                         : 0;
        break;
      }
      default:
        // Host memory outside every bound range: tenant 0.
        d = RandomWrite(0x1000 + rng.NextBelow(512) * 8, 8);
        break;
    }
    const uint64_t cost = dev.Access(&clock, d);
    charged_ns += cost;
    cost_hash = cost_hash * 1'000'003 + cost;
  }
  dev.RemoveActiveThreads(active);

  EXPECT_EQ(charged_ns, 120'965'453u);
  EXPECT_EQ(cost_hash, 10'373'020'476'036'527'535u);
  const DeviceCounters c = dev.counters();
  EXPECT_EQ(c.read_bytes, 17'849'184u);
  EXPECT_EQ(c.write_bytes, 11'833'792u);
  EXPECT_EQ(c.nt_write_bytes, 5'590'400u);
  EXPECT_EQ(c.read_ops, 43'158u);
  EXPECT_EQ(c.write_ops, 56'842u);
  const DeviceCounters t1 = dev.tenant_counters(1);
  EXPECT_EQ(t1.read_bytes, 8'919'920u);
  EXPECT_EQ(t1.write_bytes, 5'782'280u);
  EXPECT_EQ(t1.nt_write_bytes, 2'760'640u);
  EXPECT_EQ(t1.read_ops, 21'592u);
  EXPECT_EQ(t1.write_ops, 21'041u);
}

// Real threads: one binder publishes tenant ranges while readers resolve
// addresses in every range. A reader sees tenant 0 (range not yet visible) or
// the range's own tenant, never a torn range; once the binder has announced a
// range, readers must resolve it. Run under the tsan preset as well.
TEST(MemoryDeviceThreadTest, BindTenantRangeWhileReadersResolve) {
  constexpr uint64_t kBase = uint64_t{1} << 32;
  constexpr uint64_t kRangeBytes = 1 << 20;
  constexpr uint32_t kRanges = MemoryDevice::kMaxTenantRanges;
  constexpr int kReaders = 3;
  const auto tenant_of = [](uint32_t range) {
    return static_cast<uint8_t>(1 + range % (MemoryDevice::kMaxTenants - 1));
  };
  for (int round = 0; round < 20; ++round) {
    MemoryDevice dev(MakeOptaneProfile());
    std::atomic<uint32_t> announced{0};  // Ranges whose BindTenantRange returned.
    std::atomic<bool> done{false};
    std::atomic<uint64_t> bad{0};
    std::atomic<uint64_t> resolved{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        uint64_t probe = static_cast<uint64_t>(r);
        bool last_pass = false;
        while (!last_pass) {
          last_pass = done.load(std::memory_order_acquire);
          for (uint32_t range = 0; range < kRanges; ++range) {
            const uint32_t known = announced.load(std::memory_order_acquire);
            const uint64_t address =
                kBase + range * kRangeBytes + (probe++ * 4160) % kRangeBytes;
            const uint8_t tenant = dev.TenantFor(address);
            const bool ok = range < known ? tenant == tenant_of(range)
                                          : (tenant == 0 || tenant == tenant_of(range));
            if (!ok) {
              bad.fetch_add(1, std::memory_order_relaxed);
            }
            if (tenant != 0) {
              resolved.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (uint32_t range = 0; range < kRanges; ++range) {
      dev.BindTenantRange(tenant_of(range), kBase + range * kRangeBytes, kRangeBytes);
      announced.store(range + 1, std::memory_order_release);
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) {
      t.join();
    }
    ASSERT_EQ(bad.load(), 0u) << "round " << round;
    // The readers' last pass ran after every range was announced.
    EXPECT_GE(resolved.load(), uint64_t{kReaders} * kRanges);
    EXPECT_TRUE(dev.multi_tenant());
  }
}

TEST(BandwidthLedgerTest, MixReflectsRecentTraffic) {
  BandwidthLedger ledger(1000);
  AccessDescriptor read = SequentialRead(0, 3000);
  AccessDescriptor write = SequentialWrite(0, 1000);
  ledger.Charge(500, read);
  ledger.Charge(600, write);
  const auto mix = ledger.SampleMix(700);
  EXPECT_NEAR(mix.write_fraction, 0.25, 1e-9);
  EXPECT_EQ(mix.window_bytes, 4000u);
}

TEST(BandwidthLedgerTest, OldTrafficAgesOut) {
  BandwidthLedger ledger(1000);
  ledger.Charge(0, SequentialWrite(0, 1 << 20));
  const auto mix = ledger.SampleMix(1'000'000);  // 1000 buckets later.
  EXPECT_EQ(mix.window_bytes, 0u);
  EXPECT_EQ(mix.write_fraction, 0.0);
}

// Test-local reference for the ledger's window: a plain per-epoch map with
// the same 64-slot recycling (charging an epoch evicts the other epoch sharing
// its slot), rescanned on every sample.
class RescanLedger {
 public:
  explicit RescanLedger(uint64_t bucket_ns) : bucket_ns_(bucket_ns) {}

  void Charge(uint64_t now_ns, const AccessDescriptor& d, uint8_t tenant) {
    const uint64_t epoch = now_ns / bucket_ns_;
    const int slot = static_cast<int>(epoch % BandwidthLedger::ring_size());
    auto it = slot_epoch_.find(slot);
    if (it != slot_epoch_.end() && it->second != epoch) {
      buckets_.erase(it->second);
    }
    slot_epoch_[slot] = epoch;
    Bucket& b = buckets_[epoch];
    (d.op == AccessOp::kRead ? b.read : b.write) += d.bytes;
    if (d.op == AccessOp::kWrite && d.non_temporal) {
      b.nt += d.bytes;
    }
    b.tenant[tenant] += d.bytes;
  }

  BandwidthLedger::Mix SampleMix(uint64_t now_ns) const {
    const Bucket w = Window(now_ns);
    BandwidthLedger::Mix mix;
    mix.window_bytes = w.read + w.write;
    if (mix.window_bytes > 0) {
      mix.write_fraction = static_cast<double>(w.write) / static_cast<double>(mix.window_bytes);
      mix.nt_write_fraction = static_cast<double>(w.nt) / static_cast<double>(mix.window_bytes);
    }
    return mix;
  }

  BandwidthLedger::TenantOccupancy SampleTenantOccupancy(uint64_t now_ns, uint8_t tenant) const {
    const Bucket w = Window(now_ns);
    BandwidthLedger::TenantOccupancy occ;
    occ.active_tenants = 0;
    for (uint64_t bytes : w.tenant) {
      occ.total_bytes += bytes;
      occ.active_tenants += bytes > 0 ? 1 : 0;
    }
    occ.own_bytes = w.tenant[tenant];
    occ.active_tenants += occ.own_bytes == 0 ? 1 : 0;
    return occ;
  }

 private:
  struct Bucket {
    uint64_t read = 0;
    uint64_t write = 0;
    uint64_t nt = 0;
    uint64_t tenant[BandwidthLedger::kMaxTenants] = {};
  };

  Bucket Window(uint64_t now_ns) const {
    const uint64_t epoch = now_ns / bucket_ns_;
    Bucket w;
    for (uint64_t i = 0; i < 3 && i <= epoch; ++i) {
      auto it = buckets_.find(epoch - i);
      if (it == buckets_.end()) {
        continue;
      }
      w.read += it->second.read;
      w.write += it->second.write;
      w.nt += it->second.nt;
      for (uint32_t t = 0; t < BandwidthLedger::kMaxTenants; ++t) {
        w.tenant[t] += it->second.tenant[t];
      }
    }
    return w;
  }

  uint64_t bucket_ns_;
  std::map<uint64_t, Bucket> buckets_;
  std::map<int, uint64_t> slot_epoch_;
};

// Seeded interleavings of charges and samples from several clocks that lag
// one another and sometimes jump 64+ epochs ahead or behind (recycling ring
// slots inside the sampled window), with 1-4 tenants: every sample of the
// ledger's running window equals a full rescan, field for field.
TEST(BandwidthLedgerTest, RunningWindowMatchesRescan) {
  constexpr uint64_t kBucketNs = 1000;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Random rng(seed);
    BandwidthLedger ledger(kBucketNs);
    RescanLedger reference(kBucketNs);
    const uint32_t tenants = 1 + static_cast<uint32_t>(rng.NextBelow(4));
    uint64_t clocks[4] = {};
    for (int op = 0; op < 4000; ++op) {
      uint64_t& now = clocks[rng.NextBelow(4)];
      const uint64_t move = rng.NextBelow(100);
      if (move < 2) {
        now += (64 + rng.NextBelow(8)) * kBucketNs;  // Far ahead: recycles slots.
      } else if (move < 4) {
        now -= std::min(now, (64 + rng.NextBelow(8)) * kBucketNs);  // Far behind.
      } else if (move < 10) {
        now -= std::min(now, rng.NextBelow(3 * kBucketNs));  // A lagging worker.
      } else {
        now += rng.NextBelow(kBucketNs / 2);
      }
      const uint8_t tenant = static_cast<uint8_t>(rng.NextBelow(tenants));
      const uint64_t what = rng.NextBelow(10);
      if (what < 6) {
        const uint32_t bytes = static_cast<uint32_t>(rng.NextBelow(4096));
        const AccessDescriptor d = what < 3   ? SequentialRead(0, bytes)
                                   : what < 5 ? SequentialWrite(0, bytes)
                                              : NonTemporalWrite(0, bytes);
        ledger.Charge(now, d, tenant);
        reference.Charge(now, d, tenant);
      } else if (what < 8) {
        const BandwidthLedger::Mix got = ledger.SampleMix(now);
        const BandwidthLedger::Mix want = reference.SampleMix(now);
        ASSERT_EQ(got.window_bytes, want.window_bytes) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.write_fraction, want.write_fraction) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.nt_write_fraction, want.nt_write_fraction)
            << "seed " << seed << " op " << op;
      } else {
        const BandwidthLedger::TenantOccupancy got = ledger.SampleTenantOccupancy(now, tenant);
        const BandwidthLedger::TenantOccupancy want =
            reference.SampleTenantOccupancy(now, tenant);
        ASSERT_EQ(got.own_bytes, want.own_bytes) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.total_bytes, want.total_bytes) << "seed " << seed << " op " << op;
        ASSERT_EQ(got.active_tenants, want.active_tenants) << "seed " << seed << " op " << op;
      }
    }
  }
}

// Charges into epochs e, e + 64 and e + 128 (each recycling the previous one's
// ring slot), then a lagging charge back into e (recycling e + 128): every
// epoch is settled or resident exactly once, so the lifetime totals and the
// recorded series equal the sums of the charges.
TEST(BandwidthLedgerTest, SettledEpochsSumToCharges) {
  constexpr uint64_t kBase = uint64_t{1} << 32;
  constexpr uint64_t kTenantBytes = 1 << 20;
  MemoryDevice dev(MakeOptaneProfile());
  dev.BindTenantRange(0, kBase, kTenantBytes);
  dev.BindTenantRange(1, kBase + kTenantBytes, kTenantBytes);
  dev.StartRecording();
  const uint64_t bucket_ns = dev.ledger().bucket_ns();
  const uint64_t ring = BandwidthLedger::ring_size();
  constexpr uint64_t kE = 5;

  Random rng(7);
  DeviceCounters want_tenant[2];
  std::map<uint64_t, DeviceCounters> want_epoch;
  SimClock clock;
  for (const uint64_t epoch : {kE, kE + ring, kE + 2 * ring, kE}) {
    for (int i = 0; i < 20; ++i) {
      clock.SetTime(epoch * bucket_ns + rng.NextBelow(bucket_ns / 2));
      const uint32_t tenant = static_cast<uint32_t>(rng.NextBelow(2));
      const uint64_t address = kBase + tenant * kTenantBytes + rng.NextBelow(1024) * 64;
      const uint32_t bytes = 8u << rng.NextBelow(6);
      AccessDescriptor d;
      DeviceCounters charged;
      switch (rng.NextBelow(3)) {
        case 0:
          d = RandomRead(address, bytes);
          charged = {bytes, 0, 0, 1, 0};
          break;
        case 1:
          d = SequentialWrite(address, bytes);
          charged = {0, bytes, 0, 0, 1};
          break;
        default:
          d = NonTemporalWrite(address, bytes);
          charged = {0, bytes, bytes, 0, 1};
          break;
      }
      dev.Access(&clock, d);
      ASSERT_EQ(dev.ledger().EpochOf(clock.now_ns()), epoch);
      want_tenant[tenant] += charged;
      want_epoch[epoch] += charged;
    }
  }

  auto expect_equal = [](const DeviceCounters& got, const DeviceCounters& want) {
    EXPECT_EQ(got.read_bytes, want.read_bytes);
    EXPECT_EQ(got.write_bytes, want.write_bytes);
    EXPECT_EQ(got.nt_write_bytes, want.nt_write_bytes);
    EXPECT_EQ(got.read_ops, want.read_ops);
    EXPECT_EQ(got.write_ops, want.write_ops);
  };
  expect_equal(dev.tenant_counters(0), want_tenant[0]);
  expect_equal(dev.tenant_counters(1), want_tenant[1]);
  DeviceCounters want_total = want_tenant[0];
  want_total += want_tenant[1];
  expect_equal(dev.counters(), want_total);
  expect_equal(dev.tenant_counters(2), DeviceCounters{});

  const std::vector<DeviceCounters> series = dev.RecordedSeries();
  ASSERT_EQ(series.size(), kE + 2 * ring + 1);
  for (uint64_t epoch = 0; epoch < series.size(); ++epoch) {
    SCOPED_TRACE(epoch);
    expect_equal(series[epoch], want_epoch[epoch]);
  }
}

TEST(PrefetchQueueTest, HitThenConsume) {
  PrefetchQueue q;
  q.Prefetch(0x12345);
  EXPECT_TRUE(q.Consume(0x12345));
  EXPECT_FALSE(q.Consume(0x12345));  // One-shot.
  EXPECT_EQ(q.issued(), 1u);
  EXPECT_EQ(q.hits(), 1u);
}

TEST(PrefetchQueueTest, SameLineMatches) {
  PrefetchQueue q;
  q.Prefetch(0x1000);
  EXPECT_TRUE(q.Consume(0x103F));  // Same 64B line.
}

TEST(PrefetchQueueTest, CapacityEvictsOldest) {
  PrefetchQueue q;
  q.Prefetch(0x40);
  for (size_t i = 0; i < PrefetchQueue::kCapacity; ++i) {
    q.Prefetch(0x100000 + i * 64);
  }
  EXPECT_FALSE(q.Consume(0x40));
}

// PrefetchQueue as it was before its slot index: a scan of the window for the
// lowest slot holding the line. Kept verbatim as the reference.
class ScanPrefetchQueue {
 public:
  static constexpr size_t kCapacity = 64;

  ScanPrefetchQueue() { Reset(); }

  void Reset() {
    for (auto& slot : ring_) {
      slot = 0;
    }
    next_ = 0;
    issued_ = 0;
    hits_ = 0;
  }

  void SetWindow(size_t window) {
    window_ = window < 1 ? 1 : (window > kCapacity ? kCapacity : window);
  }

  void Prefetch(uint64_t address) {
    ring_[next_] = address >> 6;
    next_ = (next_ + 1) % window_;
    ++issued_;
  }

  bool Consume(uint64_t address) {
    const uint64_t line = address >> 6;
    for (size_t i = 0; i < window_; ++i) {
      if (ring_[i] == line) {
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
  uint64_t ring_[kCapacity];
  size_t window_ = kCapacity;
  size_t next_ = 0;
  uint64_t issued_ = 0;
  uint64_t hits_ = 0;
};

TEST(PrefetchQueueTest, MatchesReferenceScan) {
  uint64_t hits = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    PrefetchQueue q;
    ScanPrefetchQueue ref;
    // Few distinct lines, so lines repeat across slots; line 0 (what an empty
    // slot holds) among them.
    const uint64_t lines = 2 + rng.NextBelow(1 + seed * 4);
    for (int op = 0; op < 20'000; ++op) {
      const uint64_t address = rng.NextBelow(lines) * 64 + rng.NextBelow(64);
      const uint64_t kind = rng.NextBelow(100);
      if (kind < 45) {
        q.Prefetch(address);
        ref.Prefetch(address);
      } else if (kind < 97) {
        ASSERT_EQ(q.Consume(address), ref.Consume(address)) << "seed=" << seed << " op=" << op;
      } else if (kind < 99) {
        // Shrinking and growing, past both clamps.
        const size_t window = rng.NextBelow(PrefetchQueue::kCapacity + 8);
        q.SetWindow(window);
        ref.SetWindow(window);
      } else if (rng.NextBool(0.2)) {
        q.Reset();
        ref.Reset();
      }
      ASSERT_EQ(q.hits(), ref.hits()) << "seed=" << seed << " op=" << op;
      ASSERT_EQ(q.issued(), ref.issued()) << "seed=" << seed << " op=" << op;
    }
    hits += q.hits();
  }
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace nvmgc
