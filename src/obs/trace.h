#ifndef INCOGNITO_OBS_TRACE_H_
#define INCOGNITO_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace incognito {
namespace obs {

/// One recorded event. Timestamps are nanoseconds on the recorder's
/// monotonic clock, relative to the Enable() epoch. `phase` follows the
/// Chrome trace_event phase codes this recorder emits: 'X' (complete
/// span), 'C' (counter sample), 'M' (metadata, e.g. thread_name).
struct TraceEvent {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  uint32_t tid = 0;    ///< small dense id, assigned per recording thread
  uint32_t pid = 1;    ///< trace-viewer process lane (1 = spans,
                       ///< 2 = scheduler timeline)
  uint32_t depth = 0;  ///< span nesting depth on its thread (0 = outermost)
  char phase = 'X';
  std::string args_json;  ///< extra `"key":value` pairs, already JSON
};

/// Aggregate of every span with one name — the per-phase rollup a
/// RunReport embeds.
struct SpanRollup {
  int64_t count = 0;
  double total_seconds = 0;
};

/// Records RAII spans, scheduler timeline events, and resource counter
/// samples, and exports them as a Chrome `trace_event` JSON object
/// (`{"traceEvents":[...]}`) loadable in chrome://tracing and Perfetto.
/// Disabled by default: a disabled recorder costs one relaxed atomic load
/// per span, so instrumentation can stay in release builds. Thread-safe;
/// events carry a per-thread id so concurrent algorithm phases render on
/// separate tracks.
///
/// The event buffer is bounded (SetCapacity; default 262144 events) so a
/// long multi-worker run cannot grow it without limit — events past the cap
/// are counted in dropped_events() and reported in the trace footer.
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 262144;

  /// The recorder the INCOGNITO_SPAN macro records into.
  static TraceRecorder& Global();

  /// Starts recording; resets the time epoch and drops prior events.
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Caps the event buffer; events recorded past the cap are dropped and
  /// counted. Call before Enable(); 0 restores the default.
  void SetCapacity(size_t max_events);
  uint64_t dropped_events() const;

  /// Nanoseconds on the monotonic clock (absolute, epoch-independent).
  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Records one completed span given absolute NowNs() endpoints.
  void Record(std::string name, uint64_t start_ns, uint64_t end_ns,
              uint32_t depth);

  /// Records a completed span with explicit lane ids (the TaskTimeline
  /// export uses tid = worker id, pid = 2 so the scheduler renders as its
  /// own process with per-worker swimlanes). Endpoints are absolute
  /// NowNs() values; `args_json` is extra `"key":value` JSON for the
  /// event's args object.
  void RecordComplete(std::string name, uint64_t start_ns, uint64_t end_ns,
                      uint32_t tid, uint32_t pid, std::string args_json);

  /// Records a counter sample (ph='C') at an absolute timestamp; Chrome
  /// renders these as stacked area charts. `args_json` holds the series,
  /// e.g. "\"bytes\":123".
  void RecordCounter(std::string name, uint64_t ts_ns, uint32_t pid,
                     std::string args_json);

  /// Records a metadata event (ph='M'), e.g. name="thread_name" with
  /// args "\"name\":\"worker 0\"" to label a swimlane.
  void RecordMetadata(std::string name, uint32_t tid, uint32_t pid,
                      std::string args_json);

  std::vector<TraceEvent> Snapshot() const;
  size_t num_events() const;
  void Clear();

  /// Per-name aggregates over the recorded 'X' (span) events.
  std::map<std::string, SpanRollup> RollupByName() const;

  /// The Chrome trace_event JSON object: {"traceEvents":[...],
  /// "displayTimeUnit":"ms", "droppedEvents":N}.
  std::string ToJson() const;
  Status WriteJson(const std::string& path) const;

 private:
  static uint32_t CurrentThreadId();

  /// Appends under mu_, enforcing the capacity bound.
  void Push(TraceEvent event);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t epoch_ns_ = 0;
  size_t capacity_ = kDefaultCapacity;
  uint64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

/// RAII span: records the scope's duration into the global TraceRecorder
/// when it is enabled, and tracks per-thread nesting depth. Use via
/// INCOGNITO_SPAN so the whole thing compiles out under
/// INCOGNITO_OBS_DISABLED.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : active_(TraceRecorder::Global().enabled()) {
    if (active_) {
      name_ = name;
      depth_ = depth_counter()++;
      start_ns_ = TraceRecorder::NowNs();
    }
  }
  ~ScopedSpan() {
    if (active_) {
      uint64_t end_ns = TraceRecorder::NowNs();
      --depth_counter();
      TraceRecorder::Global().Record(name_, start_ns_, end_ns, depth_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static uint32_t& depth_counter() {
    thread_local uint32_t depth = 0;
    return depth;
  }

  bool active_;
  const char* name_ = nullptr;
  uint64_t start_ns_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace obs
}  // namespace incognito

#endif  // INCOGNITO_OBS_TRACE_H_
