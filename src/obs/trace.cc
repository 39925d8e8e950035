#include "src/obs/trace.h"

#include <algorithm>
#include <cstdio>

namespace nvmgc {

namespace {

// Host-thread → (tracer, ring) binding. A single slot per host thread is
// enough: a thread serves one tracer at a time (a pause runs on one thread;
// bench processes run Vms sequentially).
struct ThreadBinding {
  const GcTracer* owner = nullptr;
  uint32_t tid = 0;
};
thread_local ThreadBinding tls_binding;

// Chrome trace timestamps are microseconds; keep nanosecond precision with a
// fractional part.
void AppendMicros(std::string* out, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  out->append(buf);
}

}  // namespace

void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out->append(buf);
    } else {
      out->push_back(c);
    }
  }
}

GcTracer::GcTracer(uint32_t gc_threads, size_t ring_capacity)
    : gc_threads_(gc_threads), ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      rings_(gc_threads + 1) {}

void GcTracer::BindThread(uint32_t tid) {
  tls_binding.owner = this;
  tls_binding.tid = tid <= gc_threads_ ? tid : gc_threads_;
}

GcTracer::Ring* GcTracer::BoundRing() {
  if (tls_binding.owner != this) {
    return nullptr;
  }
  return &rings_[tls_binding.tid];
}

void GcTracer::Emit(const char* name, const char* cat, uint64_t start_ns, uint64_t end_ns) {
  if (!enabled()) {
    return;
  }
  Ring* ring = BoundRing();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.tid = tls_binding.tid;
  e.start_ns = start_ns;
  e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  if (ring->events.size() < ring_capacity_) {
    ring->events.push_back(e);
  } else {
    // Ring full: overwrite the oldest retained event.
    ring->events[ring->next % ring_capacity_] = e;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++ring->next;
  ++ring->total;
}

void GcTracer::EmitInstant(const char* name, const char* cat, uint64_t now_ns) {
  Emit(name, cat, now_ns, now_ns);
}

void GcTracer::EmitCounter(const char* name, const char* cat, uint64_t now_ns, double value) {
  if (!enabled()) {
    return;
  }
  Ring* ring = BoundRing();
  if (ring == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.tid = tls_binding.tid;
  e.start_ns = now_ns;
  e.kind = TraceEventKind::kCounter;
  e.value = value;
  if (ring->events.size() < ring_capacity_) {
    ring->events.push_back(e);
  } else {
    ring->events[ring->next % ring_capacity_] = e;
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  ++ring->next;
  ++ring->total;
}

std::vector<TraceEvent> GcTracer::SortedEvents() const {
  std::vector<TraceEvent> all;
  for (const Ring& ring : rings_) {
    all.insert(all.end(), ring.events.begin(), ring.events.end());
  }
  std::sort(all.begin(), all.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.start_ns != b.start_ns) {
      return a.start_ns < b.start_ns;
    }
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    return a.dur_ns > b.dur_ns;  // Outer (longer) spans first at equal starts.
  });
  return all;
}

void GcTracer::AppendChromeEvents(std::string* out, uint32_t pid,
                                  const std::string& process_name) const {
  char buf[64];
  out->append("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":");
  std::snprintf(buf, sizeof(buf), "%u", pid);
  out->append(buf);
  out->append(",\"tid\":0,\"args\":{\"name\":\"");
  AppendJsonEscaped(out, process_name.c_str());
  out->append("\"}}");
  for (const TraceEvent& e : SortedEvents()) {
    out->append(",\n{\"name\":\"");
    AppendJsonEscaped(out, e.name);
    out->append("\",\"cat\":\"");
    AppendJsonEscaped(out, e.cat);
    out->append("\",\"ph\":");
    if (e.kind == TraceEventKind::kCounter) {
      out->append("\"C\",\"ts\":");
      AppendMicros(out, e.start_ns);
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%.3f}", e.value);
      out->append(buf);
    } else if (e.dur_ns > 0) {
      out->append("\"X\",\"ts\":");
      AppendMicros(out, e.start_ns);
      out->append(",\"dur\":");
      AppendMicros(out, e.dur_ns);
    } else {
      out->append("\"i\",\"s\":\"t\",\"ts\":");
      AppendMicros(out, e.start_ns);
    }
    std::snprintf(buf, sizeof(buf), ",\"pid\":%u,\"tid\":%u}", pid, e.tid);
    out->append(buf);
  }
}

}  // namespace nvmgc
