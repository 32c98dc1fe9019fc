// The compaction service daemon: a bounded multi-job execution engine
// behind an AF_UNIX length-prefixed JSON protocol (docs/service.md).
//
// Robustness properties (the reason this layer exists):
//
//   Admission control   the queue is bounded; a submit that does not fit
//                       either displaces a strictly-lower-priority queued
//                       job (load shedding, reported to its owner as
//                       state "shed") or is rejected with a typed reason
//                       — never silently dropped.
//
//   Fault isolation     each job attempt runs behind an exception
//                       barrier; any failure becomes a typed JobError on
//                       that job alone.  Transient failures retry with
//                       exponential backoff until a retry budget is
//                       exhausted, then the job is quarantined.
//
//   Watchdog            a monitor thread cancels running jobs whose
//                       deadline expired or whose progress stamp (the
//                       runner's per-phase heartbeat) has gone stale —
//                       a wedged job costs its executor slot only until
//                       the next cancellation point.
//
//   Graceful drain      on SIGTERM (or a shutdown request) the daemon
//                       stops accepting, cancels running jobs at the
//                       next phase boundary — their finished phases are
//                       already in the per-job checkpoint journal — and
//                       persists a resume snapshot.  A restarted daemon
//                       re-enqueues interrupted jobs and completes them
//                       bit-identically to an uninterrupted run.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "svc/job.hpp"
#include "svc/registry.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace scanc::svc {

/// Watchdog stall test for one running job: true when its last progress
/// stamp is more than `stall_ns` older than `now_ns`.  Executors store
/// stamps without the daemon lock, so a stamp may be newer than a `now_ns`
/// read just before; such a job is making progress and never stalled
/// (the difference saturates at zero instead of wrapping).
[[nodiscard]] constexpr bool progress_stalled(std::uint64_t now_ns,
                                              std::uint64_t stamp_ns,
                                              std::uint64_t stall_ns) noexcept {
  return now_ns > stamp_ns && now_ns - stamp_ns > stall_ns;
}

struct DaemonOptions {
  std::string socket_path;
  /// Per-job checkpoint journals and the drain resume snapshot live
  /// here.  Empty disables both (jobs still run; drain loses queued and
  /// in-flight work).
  std::string state_dir;
  std::size_t max_queue = 64;    ///< queued-job bound (admission control)
  std::size_t executors = 2;     ///< concurrent job attempts
  int max_retries = 2;           ///< transient-failure attempts before quarantine
  double backoff_initial_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  double watchdog_interval_seconds = 0.05;
  /// A running job whose progress stamp is older than this is considered
  /// wedged and cancelled by the watchdog.  Stamps are written at runner
  /// phase boundaries, so this must exceed the longest legitimate single
  /// phase — it is a wedge detector, not a deadline (use the job's
  /// deadline_seconds for budgets).
  double stall_seconds = 300.0;
  SharedRegistry::Limits registry;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Serves until `shutdown` is raised (signal, deadline, or a client
  /// "shutdown" request), then drains and persists the resume snapshot.
  /// Returns the number of jobs left non-terminal (re-queued for the
  /// next daemon generation); 0 means everything submitted reached a
  /// terminal state.
  std::size_t run(const util::CancelToken& shutdown);

 private:
  struct Job {
    JobSpec spec;
    JobState state = JobState::Queued;
    int attempts = 0;
    std::uint64_t seq = 0;
    std::string error;
    std::string error_kind;  ///< "bad_request"/"deadline_exceeded"/"internal"/"shed"
    std::string result_json;     ///< dumped result object when Done
    std::uint64_t submit_ns = 0;
    bool started_once = false;   ///< JobQueueNanos recorded
    double not_before = 0.0;     ///< steady seconds; retry backoff gate
    // Valid while Running:
    util::CancelToken run_cancel;
    std::shared_ptr<std::atomic<std::uint64_t>> progress_ns;
  };

  void serve_connection(int fd);
  Json handle_request(const Json& request);
  Json op_submit(const Json& request);
  Json op_status(const Json& request);
  Json op_wait(const Json& request);
  Json op_stats();

  void executor_loop();
  void execute_attempt(Job& job);
  void watchdog_loop();

  Json job_status_json(const Job& job) const;  // caller holds mutex_
  void finish(Job& job, JobState state);       // caller holds mutex_
  void update_gauges() const;                  // caller holds mutex_

  void write_snapshot();
  std::size_t load_snapshot();

  DaemonOptions options_;
  SharedRegistry registry_;
  std::unique_ptr<util::ThreadPool> pool_;
  util::CancelToken shutdown_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< executors: work available / stop
  std::condition_variable done_cv_;   ///< waiters: some job reached terminal
  std::unordered_map<std::string, std::unique_ptr<Job>> jobs_;
  std::vector<Job*> queue_;           ///< Queued jobs, unordered (scanned)
  std::size_t running_ = 0;
  std::uint64_t next_seq_ = 1;
  bool draining_ = false;
  bool stop_executors_ = false;

  std::atomic<bool> watchdog_stop_{false};

  std::atomic<std::size_t> active_conns_{0};
  std::condition_variable conns_cv_;  ///< drain: active_conns_ -> 0
  std::mutex conns_mutex_;
};

}  // namespace scanc::svc
