// Chrome trace-event writer (chrome://tracing / Perfetto "JSON trace").
//
// Emits the JSON Array Format with complete ("ph":"X") duration events:
//   {"traceEvents":[
//     {"name":"process_name","ph":"M","pid":1,"args":{"name":"scanc"}},
//     {"name":"phase1+2","cat":"phase","ph":"X","pid":1,"tid":0,
//      "ts":12.0,"dur":3400.5},
//     ...]}
// Timestamps are microseconds on a process-wide steady clock; nesting is
// reconstructed by the viewer from [ts, ts+dur] containment per tid, so
// RAII spans (obs::Span) produce correctly nested tracks with no
// begin/end pairing on our side.
//
// One global writer is installed via open_trace(); Span checks a relaxed
// atomic first, so with no writer installed a span costs one load and a
// branch and performs no allocation.  The writer itself serializes
// appends with a mutex — events are emitted at span *end*, never inside
// simulation frame loops.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace scanc::obs {

class TraceWriter {
 public:
  /// Opens `path` for writing and emits the trace header.  ok() reports
  /// whether the file could be created.
  explicit TraceWriter(const std::string& path);

  /// Finishes the trace (idempotent) and closes the file.
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  [[nodiscard]] bool ok() const noexcept { return file_ != nullptr; }

  /// Appends one complete duration event.  `name` and `cat` must be
  /// JSON-safe (the instrumentation uses string literals only).
  void event_complete(const char* name, const char* cat,
                      std::uint64_t ts_us, std::uint64_t dur_us,
                      std::uint32_t tid);

  /// Writes the closing bracket and flushes (idempotent; also run by the
  /// destructor).
  void finish();

 private:
  void raw_event(const char* prefix_json);

  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  bool first_ = true;
  bool finished_ = false;
};

/// Microseconds since the process-wide telemetry epoch (steady clock,
/// initialised on first use).
[[nodiscard]] std::uint64_t now_micros() noexcept;

/// Small dense id of the calling thread (0, 1, 2, ... in first-use
/// order), cached thread-locally.
[[nodiscard]] std::uint32_t this_thread_id() noexcept;

/// Installs a global trace writer on `path`.  Returns false (and leaves
/// tracing off) when the file cannot be created.  Replacing an existing
/// writer finishes it first.
bool open_trace(const std::string& path);

/// Finishes and removes the global writer (no-op when none installed).
/// Call after all spans have ended.
void close_trace();

/// True while a global writer is installed — the fast-path check spans
/// use (one relaxed load).
[[nodiscard]] bool tracing_enabled() noexcept;

/// Emits one complete event through the global writer, if installed.
void trace_event(const char* name, const char* cat, std::uint64_t ts_us,
                 std::uint64_t dur_us);

}  // namespace scanc::obs
