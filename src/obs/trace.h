// Low-overhead GC event tracer with Chrome-trace (Perfetto) export.
//
// Every pause can be replayed as a timeline: the control thread emits one
// span per pause, each GC worker emits read-phase / write-back spans, and the
// write cache / header map emit flush and journal-clear spans nested inside
// them. All timestamps are *simulated* nanoseconds (SimClock), so a trace is
// deterministic and seeds replay identically.
//
// Concurrency model: each logical GC thread records into its own fixed-size
// ring buffer; a host thread binds itself to a logical tid
// (GcTracer::BindThread) and subsequent emits are plain unsynchronized writes
// into that ring. While tracing is enabled, the collector rebinds before every
// worker step (a disabled tracer emits nothing, so it skips that). When the
// ring wraps, the oldest events are overwritten and counted as dropped.
// Export (SortedEvents / AppendChromeEvents) must only run between pauses.

#ifndef NVMGC_SRC_OBS_TRACE_H_
#define NVMGC_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/nvm/sim_clock.h"

namespace nvmgc {

// Appends `s` to `out` as the body of a JSON string (no surrounding quotes):
// quote and backslash are backslash-escaped, other control characters become
// \u00XX. Shared by the Chrome-trace and flight-recorder incident writers.
void AppendJsonEscaped(std::string* out, std::string_view s);

// One completed span (dur_ns > 0), instant event (dur_ns == 0), or counter
// sample (kCounter: `value` carries the sampled number, rendered by Perfetto
// as a counter track per (pid, name)). Names and categories are static
// strings owned by the call sites — the hot path never allocates.
enum class TraceEventKind : uint8_t {
  kSpanOrInstant,
  kCounter,
};

struct TraceEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  uint32_t tid = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  TraceEventKind kind = TraceEventKind::kSpanOrInstant;
  double value = 0.0;  // Counter events only.
};

class GcTracer {
 public:
  // `gc_threads` logical worker tids [0, gc_threads); the control thread uses
  // tid == gc_threads. `ring_capacity` is events retained per logical thread.
  explicit GcTracer(uint32_t gc_threads, size_t ring_capacity = 4096);

  GcTracer(const GcTracer&) = delete;
  GcTracer& operator=(const GcTracer&) = delete;

  // Tracing is off by default; a disabled tracer's Emit is one relaxed load.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint32_t control_tid() const { return gc_threads_; }

  // Binds the calling host thread to logical thread `tid` for subsequent
  // emits. Called by the collector before every worker step while tracing is
  // enabled (and for the control thread once per traced pause); rebinding is
  // cheap.
  void BindThread(uint32_t tid);

  // Emits a completed span / an instant event on the bound logical thread.
  // Events emitted by an unbound thread are dropped (counted).
  void Emit(const char* name, const char* cat, uint64_t start_ns, uint64_t end_ns);
  void EmitInstant(const char* name, const char* cat, uint64_t now_ns);
  // Emits one counter sample ("ph":"C"); Perfetto renders consecutive samples
  // of the same name as a step curve under the process, aligned with spans.
  void EmitCounter(const char* name, const char* cat, uint64_t now_ns, double value);

  // All retained events across rings, ordered by (start_ns, tid). Not safe
  // concurrently with emitting threads.
  std::vector<TraceEvent> SortedEvents() const;

  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Serializes retained events as Chrome-trace "traceEvents" array elements
  // (JSON objects separated by commas, no surrounding brackets) so multiple
  // tracers/processes can share one file. `pid` groups the events; a
  // process_name metadata record labeled `process_name` is prepended.
  void AppendChromeEvents(std::string* out, uint32_t pid,
                          const std::string& process_name) const;

 private:
  struct Ring {
    std::vector<TraceEvent> events;  // capacity-sized, circular.
    size_t next = 0;
    uint64_t total = 0;  // Events ever emitted (total - retained = dropped).
  };

  Ring* BoundRing();

  const uint32_t gc_threads_;
  const size_t ring_capacity_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dropped_{0};
  std::vector<Ring> rings_;  // gc_threads_ + 1 (control).
};

// RAII span: captures the clock on construction and emits on destruction.
// The clock must outlive the span; `name`/`cat` must be static strings.
class TraceSpan {
 public:
  TraceSpan(GcTracer* tracer, const SimClock* clock, const char* name, const char* cat)
      : tracer_(tracer), clock_(clock), name_(name), cat_(cat),
        start_ns_(clock->now_ns()) {}
  ~TraceSpan() {
    if (tracer_ != nullptr && tracer_->enabled()) {
      tracer_->Emit(name_, cat_, start_ns_, clock_->now_ns());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  GcTracer* tracer_;
  const SimClock* clock_;
  const char* name_;
  const char* cat_;
  uint64_t start_ns_;
};

}  // namespace nvmgc

#endif  // NVMGC_SRC_OBS_TRACE_H_
