// Counters written by one host thread at a time.
//
// A simulated device is driven by one host thread at a time (the collector
// steps its logical workers on the calling thread, and mutators run between
// pauses), so its traffic counters need no locked read-modify-write. They stay
// std::atomic so that the rare real-thread user (a test hammering one DRAM
// device from several threads) is free of data races; concurrent writers may
// then lose updates, which a statistical counter tolerates.

#ifndef NVMGC_SRC_UTIL_SINGLE_WRITER_H_
#define NVMGC_SRC_UTIL_SINGLE_WRITER_H_

#include <atomic>
#include <cstdint>

namespace nvmgc {

// Adds `delta` with a relaxed load and store: a plain add on the hot path.
inline void SingleWriterAdd(std::atomic<uint64_t>* counter, uint64_t delta) {
  counter->store(counter->load(std::memory_order_relaxed) + delta, std::memory_order_relaxed);
}

}  // namespace nvmgc

#endif  // NVMGC_SRC_UTIL_SINGLE_WRITER_H_
