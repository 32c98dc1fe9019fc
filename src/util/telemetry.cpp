#include "util/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <ostream>
#include <thread>

#include "util/event_bus.hpp"

namespace scanc::obs {
namespace {

// ---------------------------------------------------------------------
// Registry: per-thread counter blocks + global state.

struct ThreadBlock {
  // Written only by the owning thread (relaxed store), read by
  // aggregation (relaxed load) — per-slot single-writer, so no RMW is
  // needed and increments never contend.
  std::array<std::atomic<std::uint64_t>, kNumCounters> slots{};
};

struct HistogramSlot {
  HistogramData data;  // guarded by Registry::mutex
};

class Registry {
 public:
  static Registry& instance() {
    // Leaked singleton: outlives every static and thread_local
    // destructor, so counter drains at thread exit are always safe.
    static Registry* r = new Registry;
    return *r;
  }

  void attach(ThreadBlock* block) {
    const std::lock_guard<std::mutex> lock(mutex_);
    blocks_.push_back(block);
  }

  void detach(ThreadBlock* block) {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Drain the dying thread's totals so they survive the block.
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      retired_[i] += block->slots[i].load(std::memory_order_relaxed);
    }
    blocks_.erase(std::find(blocks_.begin(), blocks_.end(), block));
  }

  CounterSnapshot aggregate() {
    const std::lock_guard<std::mutex> lock(mutex_);
    CounterSnapshot out = retired_;
    for (const ThreadBlock* b : blocks_) {
      for (std::size_t i = 0; i < kNumCounters; ++i) {
        out[i] += b->slots[i].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  void credit(const CounterSnapshot& carried) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      retired_[i] += carried[i];
    }
  }

  void record(Histogram h, std::uint64_t nanos) {
    const std::lock_guard<std::mutex> lock(mutex_);
    HistogramData& d = hists_[static_cast<std::size_t>(h)].data;
    if (d.count == 0 || nanos < d.min) d.min = nanos;
    if (nanos > d.max) d.max = nanos;
    ++d.count;
    d.sum += nanos;
    const std::size_t bucket = std::min<std::size_t>(
        kHistogramBuckets - 1,
        nanos == 0 ? 0 : static_cast<std::size_t>(std::bit_width(nanos) - 1));
    ++d.buckets[bucket];
  }

  HistogramData histogram(Histogram h) {
    const std::lock_guard<std::mutex> lock(mutex_);
    return hists_[static_cast<std::size_t>(h)].data;
  }

  void record_phase(const char* name, double seconds,
                    std::uint64_t faults_delta,
                    const CounterSnapshot& counters) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = std::find_if(phases_.begin(), phases_.end(),
                           [name](const PhaseRecord& r) {
                             return r.name == name;
                           });
    if (it == phases_.end()) {
      it = phases_.insert(phases_.end(), PhaseRecord{.name = name});
    }
    ++it->calls;
    it->seconds += seconds;
    it->faults_delta += faults_delta;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      it->counters[i] += counters[i];
    }
  }

  std::vector<PhaseRecord> phase_records() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return phases_;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    retired_.fill(0);
    for (ThreadBlock* b : blocks_) {
      for (auto& slot : b->slots) slot.store(0, std::memory_order_relaxed);
    }
    for (HistogramSlot& h : hists_) h.data = HistogramData{};
    phases_.clear();
    for (auto& g : gauges_) g.store(0, std::memory_order_relaxed);
  }

  std::array<std::atomic<std::uint64_t>, kNumGauges> gauges_{};

 private:
  std::mutex mutex_;
  std::vector<ThreadBlock*> blocks_;
  CounterSnapshot retired_{};
  std::array<HistogramSlot, kNumHistograms> hists_{};
  std::vector<PhaseRecord> phases_;
};

/// Per-thread slot block, registered on first use and drained into the
/// registry when the thread exits.
ThreadBlock& thread_block() {
  thread_local struct Holder {
    ThreadBlock block;
    Holder() { Registry::instance().attach(&block); }
    ~Holder() { Registry::instance().detach(&block); }
  } holder;
  return holder.block;
}

std::atomic<const char*> g_current_phase{""};

std::uint64_t now_nanos() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------------
// Counters.

const char* counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::FramesSimulated: return "frames_simulated";
    case Counter::FramesSkipped: return "frames_skipped";
    case Counter::ConePasses: return "cone_passes";
    case Counter::FullPasses: return "full_passes";
    case Counter::TdfActivations: return "tdf_activations";
    case Counter::TdfFramesSkipped: return "tdf_frames_skipped";
    case Counter::PpsfpBatches: return "ppsfp_batches";
    case Counter::PpsfpTestsPacked: return "ppsfp_tests_packed";
    case Counter::WideFpPasses: return "wide_fp_passes";
    case Counter::TraceCacheHits: return "trace_cache_hits";
    case Counter::TraceCacheMisses: return "trace_cache_misses";
    case Counter::TraceCacheEvictions: return "trace_cache_evictions";
    case Counter::PoolTasksRun: return "pool_tasks_run";
    case Counter::PoolQueueWaitNanos: return "pool_queue_wait_ns";
    case Counter::PoolBusyNanos: return "pool_busy_ns";
    case Counter::GroupsExecuted: return "groups_executed";
    case Counter::QueriesRun: return "queries_run";
    case Counter::FaultsDetected: return "faults_detected";
    case Counter::IterateRounds: return "iterate_rounds";
    case Counter::CombineTrialsMemoized: return "combine_trials_memoized";
    case Counter::CombineLanesDiscarded: return "combine_lanes_discarded";
    case Counter::CheckCasesRun: return "check_cases_run";
    case Counter::CheckQueriesCompared: return "check_queries_compared";
    case Counter::CheckDivergences: return "check_divergences";
    case Counter::CheckShrinkSteps: return "check_shrink_steps";
    case Counter::CheckCaseTimeouts: return "check_case_timeouts";
    case Counter::JobsSubmitted: return "jobs_submitted";
    case Counter::JobsAccepted: return "jobs_accepted";
    case Counter::JobsRejected: return "jobs_rejected";
    case Counter::JobsShed: return "jobs_shed";
    case Counter::JobsStarted: return "jobs_started";
    case Counter::JobsDone: return "jobs_done";
    case Counter::JobsFailed: return "jobs_failed";
    case Counter::JobsRetried: return "jobs_retried";
    case Counter::JobsQuarantined: return "jobs_quarantined";
    case Counter::JobsDeadlineCut: return "jobs_deadline_cut";
    case Counter::JobsResumed: return "jobs_resumed";
    case Counter::SvcConnections: return "svc_connections";
    case Counter::SvcFramesRead: return "svc_frames_read";
    case Counter::SvcFramesWritten: return "svc_frames_written";
    case Counter::SvcBytesRead: return "svc_bytes_read";
    case Counter::SvcBytesWritten: return "svc_bytes_written";
    case Counter::SvcProtocolErrors: return "svc_protocol_errors";
    case Counter::RegistryCircuitHits: return "registry_circuit_hits";
    case Counter::RegistryCircuitMisses: return "registry_circuit_misses";
    case Counter::RegistrySimReuses: return "registry_sim_reuses";
    case Counter::AtpgSatSolveCalls: return "atpg_sat_solve_calls";
    case Counter::AtpgSatConflicts: return "atpg_sat_conflicts";
    case Counter::AtpgSatProofs: return "atpg_sat_proofs";
    case Counter::AtpgSatFallbacks: return "atpg_sat_fallbacks";
    case Counter::AtpgPodemDecisions: return "atpg_podem_decisions";
    case Counter::AtpgPodemBacktracks: return "atpg_podem_backtracks";
    case Counter::AtpgPodemGateEvals: return "atpg_podem_gate_evals";
    case Counter::PatchedGateEvals: return "patched_gate_evals";
    case Counter::SessionFrames: return "session_frames";
    case Counter::SessionLanes: return "session_lanes";
    case Counter::kCount: break;
  }
  return "?";
}

CounterSnapshot counter_delta(const CounterSnapshot& after,
                              const CounterSnapshot& before) {
  CounterSnapshot out{};
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out[i] = after[i] >= before[i] ? after[i] - before[i] : 0;
  }
  return out;
}

void add(Counter c, std::uint64_t v) noexcept {
  auto& slot = thread_block().slots[static_cast<std::size_t>(c)];
  // Single-writer slot: load + store beats an RMW on the hot path.
  slot.store(slot.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}

std::uint64_t value(Counter c) {
  return Registry::instance().aggregate()[static_cast<std::size_t>(c)];
}

CounterSnapshot snapshot_counters() { return Registry::instance().aggregate(); }

void credit(const CounterSnapshot& carried) {
  Registry::instance().credit(carried);
}

void reset() {
  Registry::instance().reset();
  g_current_phase.store("", std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Gauges.

const char* gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::ThreadsConfigured: return "threads_configured";
    case Gauge::SvcQueueDepth: return "svc_queue_depth";
    case Gauge::SvcJobsRunning: return "svc_jobs_running";
    case Gauge::SimdLaneWidth: return "simd_lane_width";
    case Gauge::PpsfpTestsPerPass: return "ppsfp_tests_per_pass";
    case Gauge::kCount: break;
  }
  return "?";
}

void set_gauge(Gauge g, std::uint64_t v) noexcept {
  Registry::instance().gauges_[static_cast<std::size_t>(g)].store(
      v, std::memory_order_relaxed);
}

std::uint64_t gauge(Gauge g) noexcept {
  return Registry::instance().gauges_[static_cast<std::size_t>(g)].load(
      std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Histograms.

const char* histogram_name(Histogram h) noexcept {
  switch (h) {
    case Histogram::QueueWaitNanos: return "queue_wait_ns";
    case Histogram::TaskRunNanos: return "task_run_ns";
    case Histogram::QueryNanos: return "query_ns";
    case Histogram::JobQueueNanos: return "job_queue_ns";
    case Histogram::JobRunNanos: return "job_run_ns";
    case Histogram::JobLatencyNanos: return "job_latency_ns";
    case Histogram::kCount: break;
  }
  return "?";
}

void record(Histogram h, std::uint64_t nanos) noexcept {
  Registry::instance().record(h, nanos);
}

HistogramData histogram(Histogram h) {
  return Registry::instance().histogram(h);
}

ScopedTimer::ScopedTimer(Counter counter, Histogram hist) noexcept
    : counter_(counter), hist_(hist), start_ns_(now_nanos()) {}

ScopedTimer::~ScopedTimer() {
  const std::uint64_t elapsed = now_nanos() - start_ns_;
  if (counter_ != Counter::kCount) add(counter_, elapsed);
  if (hist_ != Histogram::kCount) record(hist_, elapsed);
}

// ---------------------------------------------------------------------
// Phase records.

std::vector<PhaseRecord> phase_records() {
  return Registry::instance().phase_records();
}

const char* current_phase() noexcept {
  return g_current_phase.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// Spans.

Span::Span(const char* name, const char* category) noexcept
    : name_(name),
      category_(category),
      start_us_(0),
      active_(tracing_enabled()) {
  if (active_) start_us_ = now_micros();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end = now_micros();
  trace_event(name_, category_, start_us_, end - start_us_);
}

Phase::Phase(const char* name, const char* category, const char* note,
             std::uint64_t faults, std::uint64_t value)
    : span_(name, category), name_(name), previous_(current_phase()) {
  if (note != nullptr) progress_note(note);
  publish_event(EventKind::PhaseBegin, name, faults, value);
  g_current_phase.store(name, std::memory_order_relaxed);
  start_ns_ = now_nanos();
  entry_ = snapshot_counters();
}

Phase::~Phase() {
  const std::uint64_t elapsed_ns = now_nanos() - start_ns_;
  if (credited_ != 0) add(Counter::FaultsDetected, credited_);
  publish_event(EventKind::PhaseEnd, name_, faults_, elapsed_ns / 1'000'000);
  g_current_phase.store(previous_, std::memory_order_relaxed);
  try {
    Registry::instance().record_phase(
        name_, static_cast<double>(elapsed_ns) * 1e-9, credited_,
        counter_delta(snapshot_counters(), entry_));
  } catch (...) {
    // Telemetry must never take down the workload.
  }
}

// ---------------------------------------------------------------------
// Run-level reporting.

namespace {

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) /
                              static_cast<double>(den);
}

void json_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

void write_metrics_json(std::ostream& out) {
  const CounterSnapshot s = snapshot_counters();
  const double pool_mean_queue_wait_ns =
      ratio(s[static_cast<std::size_t>(Counter::PoolQueueWaitNanos)],
            s[static_cast<std::size_t>(Counter::PoolTasksRun)]);
  // Snapshot ordering stamps: `sequence` is process-monotonic across
  // snapshots (so multiple --metrics-out style dumps from one run are
  // orderable even when written within the same millisecond) and
  // `emitted_unix_ms` anchors the snapshot to wall-clock time.
  static std::atomic<std::uint64_t> snapshot_sequence{0};
  const std::uint64_t seq = ++snapshot_sequence;
  const std::uint64_t unix_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  out << "{\n  \"schema\": \"scanc-metrics-v1\",\n  \"sequence\": " << seq
      << ",\n  \"emitted_unix_ms\": " << unix_ms << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << counter_name(static_cast<Counter>(i)) << "\": " << s[i];
  }
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << gauge_name(static_cast<Gauge>(i))
        << "\": " << gauge(static_cast<Gauge>(i));
  }
  out << "\n  },\n  \"derived\": {\n";
  const auto old_precision = out.precision(6);
  out << "    \"pool_mean_queue_wait_ns\": " << pool_mean_queue_wait_ns
      << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramData h = histogram(static_cast<Histogram>(i));
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << histogram_name(static_cast<Histogram>(i)) << "\": {\"count\": "
        << h.count << ", \"sum\": " << h.sum << ", \"min\": " << h.min
        << ", \"max\": " << h.max << ", \"buckets\": [";
    // Trailing zero buckets are noise; emit up to the last non-zero.
    std::size_t last = 0;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (h.buckets[b] != 0) last = b + 1;
    }
    for (std::size_t b = 0; b < last; ++b) {
      out << (b == 0 ? "" : ", ") << h.buckets[b];
    }
    out << "]}";
  }
  out << "\n  },\n  \"phases\": [";
  const std::vector<PhaseRecord> phases = phase_records();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseRecord& p = phases[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": ";
    json_string(out, p.name);
    out << ", \"calls\": " << p.calls << ", \"seconds\": " << p.seconds
        << ", \"faults_delta\": " << p.faults_delta << ", \"counters\": {";
    // Only the counters the phase moved: most stay 0 in any one phase.
    const char* sep = "";
    for (std::size_t c = 0; c < kNumCounters; ++c) {
      if (p.counters[c] == 0) continue;
      out << sep << "\"" << counter_name(static_cast<Counter>(c))
          << "\": " << p.counters[c];
      sep = ", ";
    }
    out << "}}";
  }
  out << "\n  ]\n}\n";
  out.precision(old_precision);
}

bool write_metrics_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_metrics_json(out);
  return static_cast<bool>(out);
}

void print_summary(std::ostream& out) {
  const CounterSnapshot s = snapshot_counters();
  const auto at = [&s](Counter c) {
    return s[static_cast<std::size_t>(c)];
  };
  const auto row = [&out](const char* name, std::uint64_t v) {
    out << "  " << std::left << std::setw(28) << name << std::right
        << std::setw(16) << v << "\n";
  };
  out << "[obs] run metrics\n";
  out << " kernels\n";
  row("frames simulated", at(Counter::FramesSimulated));
  row("full passes", at(Counter::FullPasses));
  row("wide fault-parallel passes", at(Counter::WideFpPasses));
  row("fault-free traces built", at(Counter::TraceCacheMisses));
  row("patched gate evals", at(Counter::PatchedGateEvals));
  row("session frames", at(Counter::SessionFrames));
  row("session lanes", at(Counter::SessionLanes));
  out << " execution\n";
  row("queries run", at(Counter::QueriesRun));
  row("groups executed", at(Counter::GroupsExecuted));
  row("pool tasks run", at(Counter::PoolTasksRun));
  row("pool queue wait ns", at(Counter::PoolQueueWaitNanos));
  row("pool busy ns", at(Counter::PoolBusyNanos));
  out << " pipeline\n";
  row("faults detected", at(Counter::FaultsDetected));
  row("iterate rounds", at(Counter::IterateRounds));
  row("combine trials memoized", at(Counter::CombineTrialsMemoized));
  row("combine lanes discarded", at(Counter::CombineLanesDiscarded));
  out << " atpg\n";
  row("podem decisions", at(Counter::AtpgPodemDecisions));
  row("podem backtracks", at(Counter::AtpgPodemBacktracks));
  row("podem gate evals", at(Counter::AtpgPodemGateEvals));
  const std::vector<PhaseRecord> phases = phase_records();
  if (!phases.empty()) {
    out << " phases (name, calls, seconds, faults)\n";
    for (const PhaseRecord& p : phases) {
      out << "  " << std::left << std::setw(28) << p.name << std::right
          << std::setw(8) << p.calls << std::setw(12) << std::fixed
          << std::setprecision(3) << p.seconds << std::setw(10)
          << p.faults_delta << "\n";
      out.unsetf(std::ios::fixed);
    }
  }
}

// ---------------------------------------------------------------------
// Heartbeat.

struct Heartbeat::Impl {
  std::thread thread;
  std::mutex mutex;
  std::condition_variable cv;
  bool stop = false;

  void loop(double interval_seconds, std::ostream* out) {
    CounterSnapshot last = snapshot_counters();
    auto last_time = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex);
    while (!stop) {
      const auto wake =
          last_time + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(interval_seconds));
      if (cv.wait_until(lock, wake, [this] { return stop; })) break;
      lock.unlock();
      const CounterSnapshot now = snapshot_counters();
      const auto now_time = std::chrono::steady_clock::now();
      const double dt =
          std::chrono::duration<double>(now_time - last_time).count();
      const auto at = [&now](Counter c) {
        return now[static_cast<std::size_t>(c)];
      };
      const CounterSnapshot delta = counter_delta(now, last);
      const double fps =
          dt > 0.0
              ? static_cast<double>(
                    delta[static_cast<std::size_t>(
                        Counter::FramesSimulated)]) /
                    dt
              : 0.0;
      const char* phase = current_phase();
      (*out) << "[obs] phase=" << (phase[0] == '\0' ? "-" : phase)
             << " faults=" << at(Counter::FaultsDetected)
             << " frames=" << at(Counter::FramesSimulated) << " frames/s="
             << std::fixed << std::setprecision(0) << fps
             << " queries=" << at(Counter::QueriesRun) << std::endl;
      out->unsetf(std::ios::fixed);
      last = now;
      last_time = now_time;
      lock.lock();
    }
  }
};

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::start(double interval_seconds, std::ostream* out) {
  if (impl_ != nullptr || interval_seconds <= 0.0) return;
  impl_ = new Impl;
  std::ostream* sink = out != nullptr ? out : &std::cerr;
  impl_->thread = std::thread(
      [this, interval_seconds, sink] { impl_->loop(interval_seconds, sink); });
}

void Heartbeat::stop() {
  if (impl_ == nullptr) return;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  delete impl_;
  impl_ = nullptr;
}

}  // namespace scanc::obs
