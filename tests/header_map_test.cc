// Tests for the header map (paper Algorithm 1): bounded closed hashing with
// CAS-claimed keys, value spinning, overflow fallback, journal clearing, and
// the per-caller install/overflow/hit counts.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/core/header_map.h"
#include "src/nvm/device_profile.h"

namespace nvmgc {
namespace {

class HeaderMapTest : public ::testing::Test {
 protected:
  HeaderMapTest() : dram_(MakeDramProfile()), map_(4096, 16, &dram_) {}

  MemoryDevice dram_;
  HeaderMap map_;
  SimClock clock_;
};

TEST_F(HeaderMapTest, PutThenGet) {
  EXPECT_EQ(map_.Put(0x1000, 0x2000, &clock_, nullptr), 0x2000u);
  EXPECT_EQ(map_.Get(0x1000, &clock_, nullptr), 0x2000u);
}

TEST_F(HeaderMapTest, GetMissReturnsNull) {
  EXPECT_EQ(map_.Get(0xdead0, &clock_, nullptr), kNullAddress);
}

TEST_F(HeaderMapTest, SecondPutForSameKeyReturnsWinner) {
  GcCycleStats stats;
  EXPECT_EQ(map_.Put(0x1000, 0x2000, &clock_, nullptr, nullptr, &stats), 0x2000u);
  // A losing thread gets the winner's value, not its own.
  EXPECT_EQ(map_.Put(0x1000, 0x3000, &clock_, nullptr, nullptr, &stats), 0x2000u);
  EXPECT_EQ(stats.header_map_installs, 1u);
  EXPECT_EQ(stats.header_map_hits, 1u);
  EXPECT_EQ(map_.Get(0x1000, &clock_, nullptr, &stats), 0x2000u);
  EXPECT_EQ(stats.header_map_hits, 2u);
  EXPECT_EQ(stats.header_map_overflows, 0u);
}

TEST_F(HeaderMapTest, ManyDistinctKeys) {
  for (Address k = 8; k <= 8 * 200; k += 8) {
    EXPECT_EQ(map_.Put(k, k + 1, &clock_, nullptr), k + 1);
  }
  for (Address k = 8; k <= 8 * 200; k += 8) {
    EXPECT_EQ(map_.Get(k, &clock_, nullptr), k + 1);
  }
  EXPECT_EQ(map_.OccupiedEntries(), 200u);
}

TEST_F(HeaderMapTest, OverflowReturnsNullAndCounts) {
  // A tiny map with a tiny probe window overflows quickly.
  MemoryDevice dram(MakeDramProfile());
  HeaderMap tiny(16 * 16 /* 16 entries */, 2 /* probe window */, &dram);
  SimClock clock;
  GcCycleStats stats;
  int overflows = 0;
  for (Address k = 8; k <= 8 * 64; k += 8) {
    if (tiny.Put(k, k + 1, &clock, nullptr, nullptr, &stats) == kNullAddress) {
      ++overflows;
    }
  }
  EXPECT_GT(overflows, 0);
  EXPECT_EQ(stats.header_map_overflows, static_cast<uint64_t>(overflows));
  EXPECT_EQ(stats.header_map_installs + stats.header_map_overflows, 64u);
  // Keys that overflowed on put must also miss on get (caller then reads the
  // NVM header) — the probe windows are identical.
  SimClock c2;
  for (Address k = 8; k <= 8 * 64; k += 8) {
    const Address got = tiny.Get(k, &c2, nullptr);
    if (got != kNullAddress) {
      EXPECT_EQ(got, k + 1);
    }
  }
}

TEST_F(HeaderMapTest, ClearJournalClearsExactlyOwnInstalls) {
  std::vector<uint32_t> journal_a;
  std::vector<uint32_t> journal_b;
  map_.Put(0x1000, 0x2000, &clock_, nullptr, &journal_a);
  map_.Put(0x1008, 0x2008, &clock_, nullptr, &journal_b);
  EXPECT_EQ(journal_a.size(), 1u);
  EXPECT_EQ(journal_b.size(), 1u);
  map_.ClearJournal(&journal_a, &clock_);
  EXPECT_TRUE(journal_a.empty());
  EXPECT_EQ(map_.Get(0x1000, &clock_, nullptr), kNullAddress);  // Cleared.
  EXPECT_EQ(map_.Get(0x1008, &clock_, nullptr), 0x2008u);       // Untouched.
  map_.ClearJournal(&journal_b, &clock_);
  EXPECT_EQ(map_.OccupiedEntries(), 0u);
}

TEST_F(HeaderMapTest, LoserDoesNotJournal) {
  std::vector<uint32_t> winner_journal;
  std::vector<uint32_t> loser_journal;
  map_.Put(0x1000, 0x2000, &clock_, nullptr, &winner_journal);
  map_.Put(0x1000, 0x3000, &clock_, nullptr, &loser_journal);
  EXPECT_EQ(winner_journal.size(), 1u);
  EXPECT_TRUE(loser_journal.empty());
}

TEST_F(HeaderMapTest, ProbesChargeSimulatedTime) {
  const uint64_t before = clock_.now_ns();
  map_.Put(0x1000, 0x2000, &clock_, nullptr);
  EXPECT_GT(clock_.now_ns(), before);
}

TEST_F(HeaderMapTest, PrefetchedProbeIsCheaper) {
  PrefetchQueue pf;
  map_.PrefetchProbe(0x4240, &pf);
  SimClock with_pf;
  map_.Get(0x4240, &with_pf, &pf);
  SimClock without_pf;
  map_.Get(0x4240, &without_pf, nullptr);
  EXPECT_LT(with_pf.now_ns(), without_pf.now_ns());
}

// The central concurrency property: for any set of racing installers of the
// same key, exactly one value wins and every caller observes that value.
TEST_F(HeaderMapTest, ConcurrentPutsAgreeOnOneWinner) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 256;
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024, 16, &dram);
  std::vector<std::vector<Address>> results(kThreads, std::vector<Address>(kKeys));
  std::vector<GcCycleStats> stats(kThreads);
  std::atomic<int> barrier{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SimClock clock;
      barrier.fetch_add(1);
      while (barrier.load() < kThreads) {
      }
      for (int k = 0; k < kKeys; ++k) {
        const Address key = 0x100000 + static_cast<Address>(k) * 8;
        const Address my_value = 0x200000 + static_cast<Address>(t) * 0x10000 + k * 8;
        results[t][k] = map.Put(key, my_value, &clock, nullptr, nullptr, &stats[t]);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  SimClock clock;
  for (int k = 0; k < kKeys; ++k) {
    const Address key = 0x100000 + static_cast<Address>(k) * 8;
    const Address stored = map.Get(key, &clock, nullptr);
    ASSERT_NE(stored, kNullAddress);
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(results[t][k], stored) << "thread " << t << " key " << k;
    }
  }
  // Each key has one winner; every loser resolved it as a hit.
  GcCycleStats total;
  for (const GcCycleStats& s : stats) {
    total.Accumulate(s);
  }
  EXPECT_EQ(total.header_map_installs, static_cast<uint64_t>(kKeys));
  EXPECT_EQ(total.header_map_hits, static_cast<uint64_t>(kKeys) * (kThreads - 1));
}

// Keys are hashed by their offset from the key origin, so two maps whose
// heaps sit at different host addresses see the same collisions, overflows
// and probe costs for keys at the same offsets.
TEST_F(HeaderMapTest, ArenaOffsetsNotHostAddressesDecideCollisions) {
  struct Run {
    uint64_t installs, overflows, clock_ns;
  };
  auto run = [&](Address origin) {
    MemoryDevice dram(MakeDramProfile());
    HeaderMap map(64 * 16 /* 64 entries */, 4, &dram);
    map.set_key_origin(origin);
    SimClock clock;
    GcCycleStats stats;
    for (uint64_t i = 0; i < 48; ++i) {
      map.Put(origin + (i * 7919 * 24) % (1 << 20), 0x10, &clock, nullptr, nullptr, &stats);
    }
    return Run{stats.header_map_installs, stats.header_map_overflows, clock.now_ns()};
  };
  const Run a = run(0x10000000);
  const Run b = run(0x7f3a12345670);
  EXPECT_GT(a.overflows, 0u);  // The window is small enough to overflow.
  EXPECT_EQ(a.installs, b.installs);
  EXPECT_EQ(a.overflows, b.overflows);
  EXPECT_EQ(a.clock_ns, b.clock_ns);
}

TEST_F(HeaderMapTest, CapacityRoundedToPowerOfTwo) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(1000 /* bytes -> 62 entries -> 32 */, 4, &dram);
  EXPECT_EQ(map.capacity(), 32u);
}

}  // namespace
}  // namespace nvmgc
