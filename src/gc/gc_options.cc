#include "src/gc/gc_options.h"

#include "src/util/check.h"

namespace nvmgc {

const char* CollectorKindName(CollectorKind kind) {
  switch (kind) {
    case CollectorKind::kG1:
      return "g1";
    case CollectorKind::kParallelScavenge:
      return "ps";
  }
  return "?";
}

std::string GcOptions::Validate() const {
  if (gc_threads == 0) {
    return "gc_threads is 0: the collector needs at least one worker "
           "(GcOptionsBuilder::GcThreads)";
  }
  if (gc_threads > kMaxGcThreads) {
    return "gc_threads is above GcOptions::kMaxGcThreads (64): the collector steps "
           "its workers from a 64-bit busy mask (GcOptionsBuilder::GcThreads)";
  }
  if (!use_write_cache) {
    if (async_flush) {
      return "async_flush requires use_write_cache: asynchronous flushing streams "
             "DRAM cache regions back to NVM, which do not exist without the write "
             "cache (enable WriteCache() or drop AsyncFlush())";
    }
    if (use_non_temporal) {
      return "use_non_temporal requires use_write_cache: non-temporal stores only "
             "apply to the write-back of DRAM cache regions (enable WriteCache() or "
             "drop NonTemporal())";
    }
    if (write_cache_bytes != 0) {
      return "write_cache_bytes is set but use_write_cache is false: the capacity "
             "would silently be ignored (enable WriteCache() or drop "
             "WriteCacheBytes())";
    }
    if (unlimited_write_cache) {
      return "unlimited_write_cache is set but use_write_cache is false (enable "
             "WriteCache() or drop UnlimitedWriteCache())";
    }
  }
  if (use_write_cache && unlimited_write_cache && write_cache_bytes != 0) {
    return "unlimited_write_cache contradicts an explicit write_cache_bytes cap "
           "(pick one of UnlimitedWriteCache() / WriteCacheBytes())";
  }
  if (!use_header_map) {
    if (prefetch_header_map) {
      return "prefetch_header_map requires use_header_map: there are no probe lines "
             "to prefetch without the DRAM header map (enable HeaderMap() or drop "
             "PrefetchHeaderMap())";
    }
    if (header_map_bytes != 0) {
      return "header_map_bytes is set but use_header_map is false: the capacity "
             "would silently be ignored (enable HeaderMap() or drop "
             "HeaderMapBytes())";
    }
  }
  if (prefetch_header_map && !prefetch) {
    return "prefetch_header_map requires prefetch: header-map probe prefetching "
           "extends object prefetching, it cannot run alone (enable Prefetch())";
  }
  if (adaptive_policy && use_write_cache && unlimited_write_cache) {
    return "adaptive_policy contradicts unlimited_write_cache: the controller "
           "tunes a bounded capacity cap (drop UnlimitedWriteCache() or "
           "AdaptivePolicy())";
  }
  return std::string();
}

GcTuning DefaultGcTuning(const GcOptions& options) {
  GcTuning t;
  t.active_gc_threads = options.gc_threads;
  t.write_cache_capacity_bytes = 0;  // Keep the constructed capacity.
  t.header_map_enabled =
      options.use_header_map && options.gc_threads >= options.header_map_min_threads;
  t.header_map_entries = 0;  // Keep the constructed table size.
  t.async_flush = options.async_flush;
  // prefetch_window keeps its default: the full PrefetchQueue::kCapacity.
  return t;
}

GcOptionsBuilder& GcOptionsBuilder::Collector(CollectorKind kind) {
  o_.collector = kind;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::GcThreads(uint32_t threads) {
  o_.gc_threads = threads;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::WriteCache(bool on) {
  o_.use_write_cache = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::WriteCacheBytes(size_t bytes) {
  o_.write_cache_bytes = bytes;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::UnlimitedWriteCache(bool on) {
  o_.unlimited_write_cache = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::HeaderMap(bool on) {
  o_.use_header_map = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::HeaderMapBytes(size_t bytes) {
  o_.header_map_bytes = bytes;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::HeaderMapMinThreads(uint32_t threads) {
  o_.header_map_min_threads = threads;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::NonTemporal(bool on) {
  o_.use_non_temporal = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::AsyncFlush(bool on) {
  o_.async_flush = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::Prefetch(bool on) {
  o_.prefetch = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::PrefetchHeaderMap(bool on) {
  o_.prefetch_header_map = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::AdaptivePolicy(bool on) {
  o_.adaptive_policy = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::Durability(bool on) {
  o_.durable = on;
  return *this;
}
GcOptionsBuilder& GcOptionsBuilder::Generational(bool on) {
  o_.generational.enabled = on;
  return *this;
}

GcOptions GcOptionsBuilder::Build() const {
  const std::string error = o_.Validate();
  NVMGC_CHECK_MSG(error.empty(), error.c_str());
  return o_;
}

GcOptions VanillaOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder()
      .Collector(collector)
      .GcThreads(threads)
      .Prefetch(collector == CollectorKind::kG1)  // G1 ships with prefetch; PS does not.
      .Build();
}

GcOptions WriteCacheOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder(VanillaOptions(collector, threads)).WriteCache().Build();
}

GcOptions AllOptimizationsOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder(WriteCacheOptions(collector, threads))
      .HeaderMap()
      .NonTemporal()
      .Prefetch()
      .PrefetchHeaderMap()
      .Build();
}

GcOptions AdaptiveOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder(AllOptimizationsOptions(collector, threads))
      .AsyncFlush()
      .AdaptivePolicy()
      .Build();
}

GcOptions DurableOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder(AllOptimizationsOptions(collector, threads)).Durability().Build();
}

GcOptions GenerationalGcOptions(CollectorKind collector, uint32_t threads) {
  return GcOptionsBuilder(AllOptimizationsOptions(collector, threads))
      .Generational()
      .Build();
}

}  // namespace nvmgc
