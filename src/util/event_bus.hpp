// scanc::obs event bus — live structured events for service introspection.
//
// Complements the counters/spans in util/telemetry.hpp: where a counter
// answers "how much work happened", an event answers "what is happening
// right now" — phase begin/end, per-round coverage deltas, periodic
// counter snapshots, and job state transitions, each stamped with a job
// id, a phase path, a per-job gap-free sequence number, and a
// steady-clock offset on the same epoch as the Chrome trace spans
// (util/trace_writer.hpp now_micros), so a streamed event correlates
// directly with a trace span.
//
// Design constraints (docs/observability.md "Live events"):
//
//   Zero cost disabled   publish_event() is one relaxed load and a
//                        branch when no sink is attached — no lock, no
//                        allocation (pinned by tests/telemetry_test.cpp
//                        alongside the span/counter zero-alloc check).
//
//   Bounded everywhere   each subscriber owns a bounded queue (overflow
//                        drops the newest event and counts it — the
//                        "dropped" marker the watch stream surfaces);
//                        per-job history rings are bounded per job and
//                        in job count; the JSONL log sink rotates at a
//                        size cap.  A slow consumer can never stall a
//                        publisher or grow the process.
//
//   Sinks, not wiring    three independent sinks share the publish
//                        path: live subscriptions (the svc `watch`
//                        verb), per-job replay rings (the `events`
//                        verb and the drain snapshot), and the JSONL
//                        event log (--event-log).  Any one of them
//                        flips the enabled bit.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace scanc::obs {

// ---------------------------------------------------------------------
// Events.

enum class EventKind : std::uint8_t {
  PhaseBegin,  ///< an obs::Phase started (phase = its name)
  PhaseEnd,    ///< ...finished; faults = detections, value = millis
  Round,       ///< one Phase 1+2 round: faults = detected, value = round
  Counters,    ///< periodic execution snapshot: value = groups this call
  JobState,    ///< service job transition; note = new state name
  kCount
};

/// Stable snake_case name ("phase_begin", ...), the JSON "kind" field.
[[nodiscard]] const char* to_string(EventKind k) noexcept;

/// Parses a kind name; returns EventKind::kCount for an unknown name.
[[nodiscard]] EventKind event_kind_from(const std::string& name) noexcept;

struct Event {
  EventKind kind = EventKind::Counters;
  std::string job;    ///< job id; empty = process-global stream
  std::string phase;  ///< phase path ("phase1+2", "phase1/step1", ...)
  std::string note;   ///< short free text (job state name, error kind)
  std::uint64_t seq = 0;     ///< per-job monotonic, 1-based, gap-free
  std::uint64_t t_us = 0;    ///< microseconds on the trace-span epoch
  std::uint64_t faults = 0;  ///< faults detected (coverage payload)
  std::uint64_t value = 0;   ///< kind-specific payload (round, groups, ms)
};

/// One compact JSON object (the JSONL event-log line / wire payload).
/// Schema: {"kind","job","phase","seq","t_us","faults","value","note"}.
[[nodiscard]] std::string event_json(const Event& e);

// ---------------------------------------------------------------------
// Publishing.

namespace events_internal {
extern std::atomic<std::uint32_t> g_sinks;
void publish_slow(EventKind kind, const char* phase, std::uint64_t faults,
                  std::uint64_t value, const char* note) noexcept;
void publish_slow_job(const std::string& job, EventKind kind,
                      const char* phase, std::uint64_t faults,
                      std::uint64_t value, const char* note) noexcept;
}  // namespace events_internal

/// True while any sink (subscriber, history, log) is attached.  One
/// relaxed load — the publish fast path.
[[nodiscard]] inline bool events_enabled() noexcept {
  return events_internal::g_sinks.load(std::memory_order_relaxed) != 0;
}

/// Publishes one event stamped with the calling thread's job scope (see
/// EventJobScope).  `phase` and `note` must be literals or outlive the
/// call.  With no sink attached this is one relaxed load and performs
/// no allocation; it never throws either way.
inline void publish_event(EventKind kind, const char* phase,
                          std::uint64_t faults = 0, std::uint64_t value = 0,
                          const char* note = nullptr) noexcept {
  if (!events_enabled()) return;
  events_internal::publish_slow(kind, phase, faults, value, note);
}

/// publish_event with an explicit job id (the svc layer's state
/// transitions, which run outside the executing thread's scope).
inline void publish_job_event(const std::string& job, EventKind kind,
                              const char* phase, std::uint64_t faults = 0,
                              std::uint64_t value = 0,
                              const char* note = nullptr) noexcept {
  if (!events_enabled()) return;
  events_internal::publish_slow_job(job, kind, phase, faults, value, note);
}

/// Receives the note of each obs::Phase entered on the thread.  Must
/// not throw.
using ProgressHook = std::function<void(const char*)>;

/// RAII thread-local job scope: while it is live, publish_event calls
/// from this thread are stamped with `job_id` and obs::Phase notes go to
/// `progress` (may be empty); an inner scope shadows both.  The service
/// installs one per job attempt, expt::run_circuit one carrying
/// RunnerOptions::progress.
class EventJobScope {
 public:
  explicit EventJobScope(std::string job_id,
                         ProgressHook progress = {}) noexcept;
  ~EventJobScope();
  EventJobScope(const EventJobScope&) = delete;
  EventJobScope& operator=(const EventJobScope&) = delete;

 private:
  friend const std::string& current_event_job() noexcept;
  friend void progress_note(const char* note);

  std::string job_;
  ProgressHook progress_;
  const EventJobScope* previous_;
};

/// The calling thread's current job scope id ("" outside any scope).
[[nodiscard]] const std::string& current_event_job() noexcept;

/// Hands `note` to the innermost job scope's progress hook (no-op
/// without one).
void progress_note(const char* note);

// ---------------------------------------------------------------------
// Live subscriptions (the svc `watch` stream source).

class EventSubscription {
 public:
  ~EventSubscription();
  EventSubscription(const EventSubscription&) = delete;
  EventSubscription& operator=(const EventSubscription&) = delete;

  /// Appends queued events to `out` (up to the queue contents), blocking
  /// up to `timeout_seconds` while the queue is empty.  Returns the
  /// number appended.  `*dropped` (optional) receives the events lost to
  /// queue overflow since the previous poll — the caller's cue to emit a
  /// "dropped" marker before the post-gap events.
  std::size_t poll(std::vector<Event>& out, double timeout_seconds,
                   std::uint64_t* dropped = nullptr);

  struct State;  ///< bus-internal queue state (defined in event_bus.cpp)

 private:
  friend std::shared_ptr<EventSubscription> subscribe(std::string,
                                                      std::size_t);
  EventSubscription() = default;
  std::shared_ptr<State> state_;
};

/// Subscribes to published events.  `job_filter` empty matches every
/// job; otherwise only events whose job id equals the filter are
/// queued.  The queue holds at most `capacity` events; overflow drops
/// the incoming event and counts it (slow-consumer shedding — the
/// publisher never blocks).  Destroying the returned handle
/// unsubscribes.
[[nodiscard]] std::shared_ptr<EventSubscription> subscribe(
    std::string job_filter, std::size_t capacity = 256);

// ---------------------------------------------------------------------
// Per-job history rings (the svc `events` replay source).

struct EventHistory {
  std::vector<Event> events;   ///< oldest-first retained ring contents
  std::uint64_t dropped = 0;   ///< events the bounded ring discarded
};

/// Enables per-job history rings retaining the last `capacity_per_job`
/// events per job (0 disables and clears).  Counts as a sink.
void set_event_history(std::size_t capacity_per_job);

/// The retained ring for `job` (empty history for an unknown job).
[[nodiscard]] EventHistory event_history(const std::string& job);

/// Re-seeds a job's ring (and its next sequence number) from a persisted
/// snapshot, so a resumed job's stream continues gap-free after the
/// already-replayed prefix.  No-op when history is disabled.
void seed_event_history(const std::string& job, std::vector<Event> events,
                        std::uint64_t dropped);

// ---------------------------------------------------------------------
// JSONL event-log sink (--event-log).

/// Opens `path` as a JSONL event log (one event_json line per event).
/// When the file exceeds `max_bytes` it is rotated once to `path`+".1"
/// (replacing any previous rotation) and restarted, so the sink holds at
/// most ~2x max_bytes on disk.  Returns false (sink off) when the file
/// cannot be created.  Counts as a sink.
bool open_event_log(const std::string& path,
                    std::uint64_t max_bytes = 8u << 20);

/// Flushes and closes the event log (idempotent, no-op when closed).
void close_event_log();

/// Shutdown ordering for every obs sink: flush+close the event log
/// FIRST, then finish the Chrome trace.  Drain paths publish their final
/// phase-end events before calling this, so the log must still be open
/// when the trace is sealed — closing the trace first loses nothing, but
/// sealing the log last guarantees those final events hit disk
/// (tests/resilience_test.cpp pins the ordering).
void shutdown_sinks();

/// Test-only: drops every subscription's pending queue, clears all
/// history rings and sequence state, and closes the log.  Callers must
/// be quiescent.
void reset_events();

}  // namespace scanc::obs
