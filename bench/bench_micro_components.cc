// Google-benchmark micro suite for the library's hot components: the device
// cost model, header-map operations, task queues, and the histogram. These
// measure HOST-side overhead (how expensive the simulation machinery itself
// is), complementing the figure benches, which report simulated time.

#include <benchmark/benchmark.h>

#include "src/core/header_map.h"
#include "src/gc/task_queue.h"
#include "src/nvm/memory_device.h"
#include "src/util/histogram.h"
#include "src/util/random.h"

namespace nvmgc {
namespace {

void BM_DeviceRandomRead(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.Access(&clock, RandomRead(0x1000, 64)));
  }
}
BENCHMARK(BM_DeviceRandomRead);

void BM_DeviceSequentialWrite(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  const uint32_t bytes = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.Access(&clock, SequentialWrite(0x1000, bytes)));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * bytes);
}
BENCHMARK(BM_DeviceSequentialWrite)->Arg(64)->Arg(4096)->Arg(65536);

void BM_DeviceMixEstimate(benchmark::State& state) {
  MemoryDevice dev(MakeOptaneProfile());
  SimClock clock;
  for (int i = 0; i < 1000; ++i) {
    dev.Access(&clock, RandomRead(0x1000, 64));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(dev.CurrentTotalBandwidthMbps(clock.now_ns()));
  }
}
BENCHMARK(BM_DeviceMixEstimate);

void BM_HeaderMapPut(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  Address key = 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Put(key, key + 1, &clock, nullptr));
    key += 8;
  }
}
BENCHMARK(BM_HeaderMapPut);

void BM_HeaderMapGetHit(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  for (Address key = 8; key < 8 * 10000; key += 8) {
    map.Put(key, key + 1, &clock, nullptr);
  }
  Random rng(5);
  for (auto _ : state) {
    const Address key = 8 * (1 + rng.NextBelow(9999));
    benchmark::DoNotOptimize(map.Get(key, &clock, nullptr));
  }
}
BENCHMARK(BM_HeaderMapGetHit);

void BM_HeaderMapGetMiss(benchmark::State& state) {
  MemoryDevice dram(MakeDramProfile());
  HeaderMap map(16 * 1024 * 1024, 16, &dram);
  SimClock clock;
  Address key = 0x100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Get(key, &clock, nullptr));
    key += 8;
  }
}
BENCHMARK(BM_HeaderMapGetMiss);

void BM_TaskQueuePushPop(benchmark::State& state) {
  TaskQueue queue;
  GcTask slot;
  for (auto _ : state) {
    queue.Push({0x1000, 0});
    queue.Pop(&slot);
    benchmark::DoNotOptimize(slot);
  }
}
BENCHMARK(BM_TaskQueuePushPop);

void BM_TaskQueueStealHalf(benchmark::State& state) {
  TaskQueue queue;
  std::vector<GcTask> buffer;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 64; ++i) {
      queue.Push({static_cast<Address>(i), 0});
    }
    buffer.clear();
    state.ResumeTiming();
    benchmark::DoNotOptimize(queue.StealHalf(&buffer));
    state.PauseTiming();
    GcTask slot;
    while (queue.Pop(&slot)) {
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_TaskQueueStealHalf);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Random rng(3);
  for (auto _ : state) {
    h.Record(rng.NextBelow(1'000'000'000));
  }
  benchmark::DoNotOptimize(h.Percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_RandomNext(benchmark::State& state) {
  Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RandomNext);

}  // namespace
}  // namespace nvmgc

BENCHMARK_MAIN();
