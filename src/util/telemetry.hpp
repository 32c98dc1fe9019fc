// scanc::obs — low-overhead, thread-safe run telemetry.
//
// Three primitives (docs/observability.md has the full catalog):
//
//   Counters   monotonic uint64s from a fixed enum catalog.  Increments
//              land in per-thread sharded slots (a plain relaxed store
//              to a thread-local block — no RMW, no contention); reads
//              aggregate the live blocks plus the totals drained from
//              exited threads.  Hot simulation loops batch into a local
//              and add() once per pass, so the per-frame cost is zero.
//
//   Gauges     last-writer-wins values (cache size, thread count).
//
//   Histograms log2-bucketed nanosecond timers (count/sum/min/max +
//              buckets) for queue wait, task run, and query latency.
//
// On top of those:
//
//   Span       RAII trace span: emits one Chrome trace-event when a
//              trace file is installed (util/trace_writer.hpp), else
//              costs one relaxed load and allocates nothing.
//   Phase      the one phase hook: a Span plus the heartbeat's current
//              phase, the progress note and one aggregated phase record
//              with counter deltas.
//   ProgressScope  the thread-local hook that receives Phase notes.
//   Heartbeat  optional background thread printing one progress line
//              (phase, faults detected, frames/s) per interval.
//
// Snapshots:  snapshot_counters() for deltas, credit() to merge counter
// totals carried across a kill/resume boundary (the expt runner journals
// counter snapshots at each checkpoint — docs/observability.md),
// write_metrics_json() for the --metrics-out machine snapshot and
// print_summary() for the --verbose-metrics human table.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/trace_writer.hpp"

namespace scanc::obs {

// ---------------------------------------------------------------------
// Counters.

enum class Counter : std::uint16_t {
  // Simulation kernel (fault/batch_engine_impl.hpp, fault/frame_loop.hpp).
  FramesSimulated,      ///< frames evaluated (lane-frames on wide passes)
  FramesSkipped,        ///< retired: always 0 (the cone kernel is gone)
  ConePasses,           ///< retired: always 0 (the cone kernel is gone)
  FullPasses,           ///< group passes, one per lane run
  TdfActivations,       ///< transition-fault launch frames injected
  TdfFramesSkipped,     ///< frames skipped activation-aware (no launch)
  // Wide batch engine (fault/batch_engine.cpp).
  PpsfpBatches,         ///< pattern-parallel batch passes run
  PpsfpTestsPacked,     ///< scan tests packed into PPSFP lanes (sum)
  WideFpPasses,         ///< fault-parallel passes on a word of > 1 lane
  // Fault-free traces (fault/fault_sim.cpp).  The names are kept from
  // the deleted trace cache: every frame-gated query builds its traces.
  TraceCacheHits,       ///< retired: always 0 (the trace cache is gone)
  TraceCacheMisses,     ///< fault-free traces built (full simulations)
  TraceCacheEvictions,  ///< retired: always 0 (the trace cache is gone)
  // Thread pool / group execution (util/thread_pool.cpp,
  // fault/group_exec.cpp).
  PoolTasksRun,
  PoolQueueWaitNanos,   ///< summed submit -> dequeue latency
  PoolBusyNanos,        ///< summed task execution time
  GroupsExecuted,       ///< fault groups of the executor's chunk plans
  QueriesRun,           ///< FaultSimulator queries issued
  // Compaction pipeline (tcomp/pipeline.cpp, tcomp/iterate.cpp).
  FaultsDetected,       ///< cumulative per-phase detection deltas
  IterateRounds,        ///< completed Phase 1+2 rounds
  // Pair combining (tcomp/combine.cpp).
  CombineTrialsMemoized,  ///< attempts rejected by the memo, unsimulated
  CombineLanesDiscarded,  ///< speculative lanes run past a success
  // Differential fuzzing subsystem (check/).
  CheckCasesRun,        ///< fuzz cases generated and checked
  CheckQueriesCompared, ///< cross-kernel / oracle comparisons performed
  CheckDivergences,     ///< divergences detected (should stay 0)
  CheckShrinkSteps,     ///< shrinker reduction attempts
  CheckCaseTimeouts,    ///< cases cut by the per-case watchdog
  // Compaction service (svc/daemon.cpp) — job lifecycle.
  JobsSubmitted,        ///< submit requests that parsed to a valid spec
  JobsAccepted,         ///< jobs admitted to the queue
  JobsRejected,         ///< jobs refused at admission (queue saturated)
  JobsShed,             ///< queued jobs evicted for higher-priority work
  JobsStarted,          ///< job attempts begun by an executor
  JobsDone,             ///< jobs that reached Done
  JobsFailed,           ///< jobs that reached Failed (typed error)
  JobsRetried,          ///< attempts re-queued after a transient failure
  JobsQuarantined,      ///< jobs poisoned after exhausting retries
  JobsDeadlineCut,      ///< running jobs cancelled by the watchdog
  JobsResumed,          ///< jobs re-enqueued from a drain snapshot
  // Compaction service — wire protocol and connections.
  SvcConnections,       ///< client connections accepted
  SvcFramesRead,        ///< well-formed frames received
  SvcFramesWritten,     ///< frames sent
  SvcBytesRead,         ///< payload bytes received
  SvcBytesWritten,      ///< payload bytes sent
  SvcProtocolErrors,    ///< malformed frames / requests (connection dropped)
  // Compaction service — shared-state registry.
  RegistryCircuitHits,  ///< parsed-circuit reuses across jobs
  RegistryCircuitMisses,///< circuits parsed/generated fresh
  RegistrySimReuses,    ///< pooled simulators reused (no construction)
  // SAT ATPG backend (atpg/sat_backend.cpp).
  AtpgSatSolveCalls,    ///< per-fault SAT solves issued
  AtpgSatConflicts,     ///< CDCL conflicts across all solves
  AtpgSatProofs,        ///< untestability proofs (UNSAT verdicts)
  AtpgSatFallbacks,     ///< --atpg=auto faults retried on SAT after abort
  // PODEM (atpg/podem.cpp).
  AtpgPodemDecisions,   ///< input decisions made (flips not included)
  AtpgPodemBacktracks,  ///< PodemResult::backtracks summed over runs
  AtpgPodemGateEvals,   ///< gate evaluations by implication
  // Simulation kernel (fault/frame_common.hpp), appended.
  PatchedGateEvals,     ///< gates evaluated through injection patches
  // Incremental Sessions (fault/fault_sim.cpp), appended.
  SessionFrames,        ///< engine frames Session steps ran (both models)
  SessionLanes,         ///< group-frames those frames carried
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name (JSON key / journal key) of a counter.
[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// Point-in-time aggregate of every counter.
using CounterSnapshot = std::array<std::uint64_t, kNumCounters>;

/// Element-wise saturating difference `after - before`.
[[nodiscard]] CounterSnapshot counter_delta(const CounterSnapshot& after,
                                            const CounterSnapshot& before);

/// Adds `v` to counter `c`.  Safe from any thread; a relaxed store to a
/// thread-local slot (no allocation after the thread's first call).
void add(Counter c, std::uint64_t v = 1) noexcept;

/// Aggregated value of one counter (live threads + retired + credited).
[[nodiscard]] std::uint64_t value(Counter c);

/// Aggregated values of all counters.
[[nodiscard]] CounterSnapshot snapshot_counters();

/// Merges counter totals recorded by an earlier (dead) process into this
/// one — the resume path for --metrics-out cumulative reporting.
void credit(const CounterSnapshot& carried);

/// Zeroes every counter, gauge, histogram, and phase record.  Test-only:
/// callers must be quiescent (no concurrent writers).
void reset();

// ---------------------------------------------------------------------
// Gauges.

enum class Gauge : std::uint16_t {
  ThreadsConfigured,  ///< last worker-thread count installed
  SvcQueueDepth,      ///< jobs currently queued in the service
  SvcJobsRunning,     ///< jobs currently executing
  SimdLaneWidth,      ///< resolved wide-engine width in bits (64 = off)
  PpsfpTestsPerPass,  ///< lane capacity of the last PPSFP batch pass
  kCount
};

inline constexpr std::size_t kNumGauges =
    static_cast<std::size_t>(Gauge::kCount);

[[nodiscard]] const char* gauge_name(Gauge g) noexcept;
void set_gauge(Gauge g, std::uint64_t v) noexcept;
[[nodiscard]] std::uint64_t gauge(Gauge g) noexcept;

// ---------------------------------------------------------------------
// Histograms (log2 nanosecond buckets: bucket i counts samples in
// [2^i, 2^(i+1)) ns; bucket 0 includes 0).

enum class Histogram : std::uint16_t {
  QueueWaitNanos,  ///< thread-pool submit -> dequeue latency
  TaskRunNanos,    ///< thread-pool task execution time
  QueryNanos,      ///< FaultSimulator query wall time
  JobQueueNanos,   ///< service job admission -> first execution
  JobRunNanos,     ///< service job execution time (final attempt)
  JobLatencyNanos, ///< service job admission -> terminal state
  kCount
};

inline constexpr std::size_t kNumHistograms =
    static_cast<std::size_t>(Histogram::kCount);
inline constexpr std::size_t kHistogramBuckets = 40;

struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
};

[[nodiscard]] const char* histogram_name(Histogram h) noexcept;
void record(Histogram h, std::uint64_t nanos) noexcept;
[[nodiscard]] HistogramData histogram(Histogram h);

/// RAII timer: on destruction adds the elapsed nanoseconds to `counter`
/// (pass Counter::kCount for none) and records them in `hist` (pass
/// Histogram::kCount for none).
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter counter,
                       Histogram hist = Histogram::kCount) noexcept;
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Counter counter_;
  Histogram hist_;
  std::uint64_t start_ns_;
};

// ---------------------------------------------------------------------
// Phase records (the paper's per-phase cost tables), written by Phase.

/// Every call of one phase name, aggregated (one record per name).
struct PhaseRecord {
  std::string name;
  std::uint64_t calls = 0;
  double seconds = 0.0;            ///< summed wall time
  std::uint64_t faults_delta = 0;  ///< newly detected faults (Phase::credit)
  /// Summed counter deltas between entry and exit.  Counters are
  /// process-wide, so a delta is exact only while one run is in flight.
  CounterSnapshot counters{};
};

[[nodiscard]] std::vector<PhaseRecord> phase_records();

/// Current (innermost) phase, for the heartbeat.
[[nodiscard]] const char* current_phase() noexcept;

// ---------------------------------------------------------------------
// Spans.

/// RAII trace span: one complete Chrome trace event on destruction when
/// a trace file is installed; with tracing off, construction is a single
/// relaxed load and nothing is allocated either way.
class Span {
 public:
  explicit Span(const char* name, const char* category = "query") noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_us_;
  bool active_;
};

/// RAII phase, the one way code marks a phase.  Entry opens a span of
/// `category`, hands `note` (if any) to the thread's progress hook
/// (ProgressScope) and sets the heartbeat phase.  Exit, by any path,
/// restores the heartbeat phase and folds the wall time, credited faults
/// and counter deltas (snapshotted only at these two boundaries) into
/// the record of `name`.  Strings must be literals.
class Phase {
 public:
  explicit Phase(const char* name, const char* category = "phase",
                 const char* note = nullptr);
  ~Phase();
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Newly detected faults this phase accounts for: added to the phase
  /// record and Counter::FaultsDetected.
  void credit(std::uint64_t faults) noexcept { credited_ = faults; }

 private:
  Span span_;
  const char* name_;
  const char* previous_;
  std::uint64_t credited_ = 0;
  std::uint64_t start_ns_ = 0;
  CounterSnapshot entry_{};
};

/// Receives the note of each obs::Phase entered on the thread.  Must
/// not throw.
using ProgressHook = std::function<void(const char*)>;

/// RAII thread-local progress scope: while it is live, the notes of the
/// obs::Phase objects this thread enters go to `hook` (may be empty); an
/// inner scope shadows the outer one.  expt::run_circuit installs one
/// carrying RunnerOptions::progress and --verbose.
class ProgressScope {
 public:
  explicit ProgressScope(ProgressHook hook) noexcept;
  ~ProgressScope();
  ProgressScope(const ProgressScope&) = delete;
  ProgressScope& operator=(const ProgressScope&) = delete;

 private:
  friend class Phase;

  ProgressHook hook_;
  const ProgressScope* previous_;
};

// ---------------------------------------------------------------------
// Run-level reporting.

/// Machine-readable snapshot: counters, gauges, histograms, derived
/// ratio (mean pool queue wait), and phase
/// records.  Schema "scanc-metrics-v1" (bench/check_metrics_schema.py).
void write_metrics_json(std::ostream& out);

/// write_metrics_json to `path` (atomically enough for CI consumption:
/// plain create/truncate).  Returns false on IO failure.
bool write_metrics_file(const std::string& path);

/// Human-readable end-of-run table (the --verbose-metrics output).
void print_summary(std::ostream& out);

/// Background progress line printer:
///   [obs] phase=<phase> faults=<n> frames=<n> frames/s=<rate> ...
/// start() spawns the thread; stop() (or destruction) joins it.  Output
/// defaults to stderr.
class Heartbeat {
 public:
  Heartbeat() = default;
  ~Heartbeat();
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void start(double interval_seconds, std::ostream* out = nullptr);
  void stop();

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace scanc::obs
