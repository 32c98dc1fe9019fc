#include "svc/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

#include <unistd.h>

#include "svc/wire.hpp"
#include "util/store.hpp"
#include "util/telemetry.hpp"

namespace scanc::svc {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

Json ok_resp(const char* op) {
  Json j = Json::object();
  j.set("ok", Json::boolean(true));
  j.set("op", Json::string(op));
  return j;
}

Json fail_resp(const char* kind, const std::string& message) {
  Json j = Json::object();
  j.set("ok", Json::boolean(false));
  j.set("kind", Json::string(kind));
  j.set("error", Json::string(message));
  return j;
}

std::string required_string(const Json& req, const char* key) {
  const Json* v = req.find(key);
  if (v == nullptr || !v->is_string()) {
    throw JobError(JobErrorKind::BadRequest,
                   std::string("missing string field \"") + key + '"');
  }
  return v->as_string();
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), registry_(options_.registry) {}

Daemon::~Daemon() = default;

// ---------------------------------------------------------------------
// Request handling.

Json Daemon::job_status_json(const Job& job) const {
  Json j = Json::object();
  j.set("id", Json::string(job.spec.id));
  j.set("state", Json::string(to_string(job.state)));
  j.set("attempts", Json::integer(static_cast<std::uint64_t>(job.attempts)));
  j.set("priority",
        Json::integer(static_cast<std::uint64_t>(job.spec.priority)));
  if (!job.error.empty()) {
    j.set("error", Json::string(job.error));
    j.set("error_kind", Json::string(job.error_kind));
  }
  if (job.state == JobState::Done && !job.result_json.empty()) {
    j.set("result", Json::parse(job.result_json));
  }
  return j;
}

void Daemon::update_gauges() const {
  obs::set_gauge(obs::Gauge::SvcQueueDepth, queue_.size());
  obs::set_gauge(obs::Gauge::SvcJobsRunning, running_);
}

void Daemon::finish(Job& job, JobState state) {
  job.state = state;
  switch (state) {
    case JobState::Done: obs::add(obs::Counter::JobsDone); break;
    case JobState::Failed: obs::add(obs::Counter::JobsFailed); break;
    case JobState::Shed: obs::add(obs::Counter::JobsShed); break;
    case JobState::Quarantined:
      obs::add(obs::Counter::JobsQuarantined);
      break;
    default: break;
  }
  obs::record(obs::Histogram::JobLatencyNanos, now_ns() - job.submit_ns);
  update_gauges();
  done_cv_.notify_all();
}

Json Daemon::op_submit(const Json& request) {
  const Json* specv = request.find("spec");
  if (specv == nullptr) {
    throw JobError(JobErrorKind::BadRequest, "missing field \"spec\"");
  }
  const JobSpec spec = parse_job_spec(*specv);
  (void)job_entry(spec);  // unknown suite circuit -> BadRequest at admission
  obs::add(obs::Counter::JobsSubmitted);

  Json resp = ok_resp("submit");
  resp.set("id", Json::string(spec.id));

  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = jobs_.find(spec.id); it != jobs_.end()) {
    // Idempotent resubmission: same id -> the existing job, whatever
    // state it is in (the spec is not compared; the id is the contract).
    resp.set("accepted", Json::boolean(true));
    resp.set("existing", Json::boolean(true));
    resp.set("state", Json::string(to_string(it->second->state)));
    return resp;
  }
  if (draining_) {
    obs::add(obs::Counter::JobsRejected);
    resp.set("accepted", Json::boolean(false));
    resp.set("reason", Json::string("draining"));
    return resp;
  }
  if (queue_.size() >= options_.max_queue) {
    // Load shedding: displace the lowest-priority queued job, newest
    // first, but only for strictly higher-priority work — equal-priority
    // arrivals are rejected instead (no churn under uniform load).
    Job* victim = nullptr;
    for (Job* j : queue_) {
      if (j->spec.priority >= spec.priority) continue;
      if (victim == nullptr || j->spec.priority < victim->spec.priority ||
          (j->spec.priority == victim->spec.priority &&
           j->seq > victim->seq)) {
        victim = j;
      }
    }
    if (victim == nullptr) {
      obs::add(obs::Counter::JobsRejected);
      resp.set("accepted", Json::boolean(false));
      resp.set("reason", Json::string("queue_full"));
      return resp;
    }
    queue_.erase(std::find(queue_.begin(), queue_.end(), victim));
    victim->error = "displaced by higher-priority job " + spec.id;
    victim->error_kind = "shed";
    finish(*victim, JobState::Shed);
  }

  auto job = std::make_unique<Job>();
  job->spec = spec;
  job->seq = next_seq_++;
  job->submit_ns = now_ns();
  queue_.push_back(job.get());
  jobs_.emplace(spec.id, std::move(job));
  obs::add(obs::Counter::JobsAccepted);
  update_gauges();
  work_cv_.notify_one();

  resp.set("accepted", Json::boolean(true));
  resp.set("state", Json::string("queued"));
  return resp;
}

Json Daemon::op_status(const Json& request) {
  const std::string id = required_string(request, "id");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return fail_resp("not_found", "unknown job " + id);
  Json resp = ok_resp("status");
  resp.set("job", job_status_json(*it->second));
  return resp;
}

Json Daemon::op_wait(const Json& request) {
  const std::string id = required_string(request, "id");
  double timeout = 60.0;
  if (const Json* t = request.find("timeout_seconds")) {
    try {
      timeout = t->as_double();
    } catch (const JsonError&) {
      throw JobError(JobErrorKind::BadRequest,
                     "timeout_seconds must be a number");
    }
    if (!std::isfinite(timeout) || timeout < 0.0) timeout = 0.0;
    timeout = std::min(timeout, 600.0);
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout));
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return fail_resp("not_found", "unknown job " + id);
  Job* job = it->second.get();
  while (!is_terminal(job->state) && !draining_) {
    if (done_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      break;
    }
  }
  Json resp = ok_resp("wait");
  resp.set("job", job_status_json(*job));
  return resp;
}

Json Daemon::op_stats() {
  Json resp = ok_resp("stats");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    resp.set("queued", Json::integer(queue_.size()));
    resp.set("running", Json::integer(running_));
    resp.set("jobs", Json::integer(jobs_.size()));
    resp.set("draining", Json::boolean(draining_));
  }
  const SharedRegistry::Stats reg = registry_.stats();
  resp.set("registry_circuits", Json::integer(reg.circuits));
  resp.set("registry_idle_sims", Json::integer(reg.idle_sims));
  Json c = Json::object();
  static constexpr obs::Counter kExported[] = {
      obs::Counter::JobsSubmitted,    obs::Counter::JobsAccepted,
      obs::Counter::JobsRejected,     obs::Counter::JobsShed,
      obs::Counter::JobsStarted,      obs::Counter::JobsDone,
      obs::Counter::JobsFailed,       obs::Counter::JobsRetried,
      obs::Counter::JobsQuarantined,  obs::Counter::JobsDeadlineCut,
      obs::Counter::JobsResumed,      obs::Counter::SvcConnections,
      obs::Counter::SvcProtocolErrors, obs::Counter::RegistryCircuitHits,
      obs::Counter::RegistryCircuitMisses, obs::Counter::RegistrySimReuses,
  };
  for (const obs::Counter counter : kExported) {
    c.set(obs::counter_name(counter), Json::integer(obs::value(counter)));
  }
  resp.set("counters", std::move(c));
  return resp;
}

Json Daemon::handle_request(const Json& request) {
  try {
    if (!request.is_object()) {
      return fail_resp("protocol", "request must be an object");
    }
    const std::string op = required_string(request, "op");
    if (op == "ping") return ok_resp("ping");
    if (op == "submit") return op_submit(request);
    if (op == "status") return op_status(request);
    if (op == "wait") return op_wait(request);
    if (op == "stats") return op_stats();
    if (op == "shutdown") {
      shutdown_.request_stop();
      return ok_resp("shutdown");
    }
    return fail_resp("protocol", "unknown op \"" + op + '"');
  } catch (const JobError& e) {
    return fail_resp(to_string(e.kind()), e.what());
  } catch (const JsonError& e) {
    return fail_resp("protocol", e.what());
  }
}

void Daemon::serve_connection(int fd) {
  std::string payload;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (draining_) break;
    }
    // Cheap idle poll so draining is noticed promptly; once a frame
    // starts, the whole frame must arrive within the per-frame deadline
    // (slow-loris protection).
    if (!poll_readable(fd, 0.25)) continue;
    bool got = false;
    try {
      got = read_frame(fd, payload, util::Deadline::after(10.0));
    } catch (const WireError& e) {
      obs::add(obs::Counter::SvcProtocolErrors);
      try {
        write_frame(fd, fail_resp("protocol", e.what()).dump(),
                    util::Deadline::after(1.0));
      } catch (...) {
        // Peer already gone; nothing to report to.
      }
      break;
    }
    if (!got) break;  // clean end of session

    Json response;
    try {
      response = handle_request(Json::parse(payload, 32, kMaxFrameBytes));
    } catch (const JsonError& e) {
      obs::add(obs::Counter::SvcProtocolErrors);
      response = fail_resp("protocol", e.what());
    }
    try {
      write_frame(fd, response.dump(), util::Deadline::after(30.0));
    } catch (const WireError&) {
      break;  // mid-response disconnect: the job (if any) runs on
    }
  }
  ::close(fd);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    --active_conns_;
  }
  conns_cv_.notify_all();
}

// ---------------------------------------------------------------------
// Execution.

void Daemon::executor_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    if (stop_executors_) return;
    Job* best = nullptr;
    double soonest = std::numeric_limits<double>::infinity();
    const double now = now_s();
    for (Job* j : queue_) {
      if (j->not_before > now) {
        soonest = std::min(soonest, j->not_before);
        continue;
      }
      if (best == nullptr || j->spec.priority > best->spec.priority ||
          (j->spec.priority == best->spec.priority && j->seq < best->seq)) {
        best = j;
      }
    }
    if (best == nullptr) {
      if (std::isfinite(soonest)) {
        work_cv_.wait_for(lock, std::chrono::duration_cast<
                                    std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(
                                        std::max(0.001, soonest - now))));
      } else {
        work_cv_.wait(lock);
      }
      continue;
    }
    queue_.erase(std::find(queue_.begin(), queue_.end(), best));
    best->state = JobState::Running;
    best->attempts++;
    running_++;
    obs::add(obs::Counter::JobsStarted);
    if (!best->started_once) {
      best->started_once = true;
      obs::record(obs::Histogram::JobQueueNanos,
                  now_ns() - best->submit_ns);
    }
    best->run_cancel = util::CancelToken::make(
        best->spec.deadline_seconds > 0.0
            ? util::Deadline::after(best->spec.deadline_seconds)
            : util::Deadline{});
    best->progress_ns = std::make_shared<std::atomic<std::uint64_t>>(now_ns());
    update_gauges();
    lock.unlock();
    execute_attempt(*best);
    lock.lock();
  }
}

void Daemon::execute_attempt(Job& job) {
  std::string result;
  std::optional<JobError> failure;
  // Exception barrier: nothing a job does — spec resolution, registry
  // build, simulation — escapes this attempt as anything but a JobError.
  try {
    const gen::SuiteEntry entry = job_entry(job.spec);
    const std::string key = circuit_key(job.spec);
    SharedRegistry::SimLease lease =
        registry_.lease_simulator(key, entry, job.spec.fault_model);

    ExecHooks hooks;
    hooks.cancel = job.run_cancel;
    if (!options_.state_dir.empty()) {
      hooks.cache_path = options_.state_dir + "/job." + job.spec.id;
    }
    hooks.shared_inputs = [this, key](const gen::SuiteEntry& e,
                                      fault::FaultModelKind m) {
      return registry_.inputs(key, e, m);
    };
    hooks.simulator = lease.get();
    const std::shared_ptr<std::atomic<std::uint64_t>> stamp = job.progress_ns;
    hooks.progress = [stamp](const char*) noexcept {
      stamp->store(now_ns(), std::memory_order_relaxed);
    };

    const obs::ScopedTimer timer(obs::Counter::kCount,
                                 obs::Histogram::JobRunNanos);
    result = run_json(execute_job(job.spec, hooks)).dump();
  } catch (const JobError& e) {
    failure = e;
  } catch (const std::exception& e) {
    failure = JobError(JobErrorKind::Internal, e.what());
  } catch (...) {
    failure = JobError(JobErrorKind::Internal, "unknown exception");
  }

  std::lock_guard<std::mutex> lock(mutex_);
  const bool deadline_expired =
      job.run_cancel.valid() && job.run_cancel.deadline().expired();
  job.run_cancel = util::CancelToken();
  job.progress_ns.reset();
  running_--;

  if (!failure) {
    job.result_json = std::move(result);
    job.error.clear();
    job.error_kind.clear();
    finish(job, JobState::Done);
  } else if (failure->kind() == JobErrorKind::DeadlineExceeded && draining_ &&
             !deadline_expired) {
    // Drain interrupted the attempt, not the job's own budget: back to
    // the queue so the resume snapshot carries it to the next daemon
    // generation, where the checkpoint journal finishes it.
    job.state = JobState::Queued;
    job.not_before = 0.0;
    queue_.push_back(&job);
    update_gauges();
  } else if (failure->kind() == JobErrorKind::DeadlineExceeded) {
    obs::add(obs::Counter::JobsDeadlineCut);
    job.error = failure->what();
    job.error_kind = to_string(failure->kind());
    finish(job, JobState::Failed);
  } else if (!failure->transient()) {
    job.error = failure->what();
    job.error_kind = to_string(failure->kind());
    finish(job, JobState::Failed);
  } else if (job.attempts > options_.max_retries) {
    job.error = failure->what();
    job.error_kind = to_string(failure->kind());
    finish(job, JobState::Quarantined);
  } else {
    // Transient failure: exponential backoff, drain-interruptible (the
    // gate is a timestamp, not a sleep — a drain snapshots the job
    // immediately).
    obs::add(obs::Counter::JobsRetried);
    const double backoff =
        std::min(options_.backoff_max_seconds,
                 options_.backoff_initial_seconds *
                     std::ldexp(1.0, job.attempts - 1));
    job.state = JobState::Queued;
    job.not_before = now_s() + backoff;
    job.error = failure->what();
    job.error_kind = to_string(failure->kind());
    queue_.push_back(&job);
    update_gauges();
  }
}

void Daemon::watchdog_loop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(
      std::max(0.005, options_.watchdog_interval_seconds)));
  while (!watchdog_stop_.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(interval);
    const std::uint64_t now = now_ns();
    const std::uint64_t stall_ns =
        static_cast<std::uint64_t>(options_.stall_seconds * 1e9);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      if (job->state != JobState::Running || !job->run_cancel.valid()) {
        continue;
      }
      if (job->run_cancel.deadline().expired()) {
        // The token's own deadline latches on the next poll; raising it
        // here just shortens the window for jobs between poll points.
        job->run_cancel.request_stop();
        continue;
      }
      if (job->progress_ns != nullptr &&
          progress_stalled(
              now, job->progress_ns->load(std::memory_order_relaxed),
              stall_ns)) {
        job->run_cancel.request_stop();  // wedged: no phase progress
      }
    }
  }
}

// ---------------------------------------------------------------------
// Drain snapshot.

namespace {
const char* kSnapshotFile = "/resume.jobs";
}

void Daemon::write_snapshot() {
  if (options_.state_dir.empty()) return;
  Json root = Json::object();
  root.set("v", Json::integer(1));
  Json arr = Json::array();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Stable order (by admission seq) so equal daemon states produce
    // byte-identical snapshots.
    std::vector<const Job*> ordered;
    ordered.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) ordered.push_back(job.get());
    std::sort(ordered.begin(), ordered.end(),
              [](const Job* a, const Job* b) { return a->seq < b->seq; });
    for (const Job* job : ordered) {
      Json j = Json::object();
      j.set("spec", job_spec_json(job->spec));
      j.set("state", Json::string(to_string(job->state)));
      j.set("attempts",
            Json::integer(static_cast<std::uint64_t>(job->attempts)));
      if (!job->error.empty()) {
        j.set("error", Json::string(job->error));
        j.set("error_kind", Json::string(job->error_kind));
      }
      if (job->state == JobState::Done && !job->result_json.empty()) {
        j.set("result", Json::parse(job->result_json));
      }
      arr.push_back(std::move(j));
    }
  }
  root.set("jobs", std::move(arr));
  util::store_write(options_.state_dir + kSnapshotFile, root.dump());
}

std::size_t Daemon::load_snapshot() {
  if (options_.state_dir.empty()) return 0;
  const std::optional<std::string> payload =
      util::store_read(options_.state_dir + kSnapshotFile);
  if (!payload) return 0;
  std::size_t resumed = 0;
  try {
    const Json root = Json::parse(*payload, 32, 64u << 20);
    const Json* version = root.find("v");
    if (version == nullptr || version->as_u64() != 1) return 0;
    const Json* jobs = root.find("jobs");
    if (jobs == nullptr) return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Json& item : jobs->items()) {
      const Json* specv = item.find("spec");
      if (specv == nullptr) continue;
      JobSpec spec;
      try {
        spec = parse_job_spec(*specv);
      } catch (const JobError&) {
        continue;  // a corrupt entry loses that job, not the snapshot
      }
      if (jobs_.count(spec.id) != 0) continue;
      // Unknown keys are ignored: older snapshots also carry each job's
      // retained `events` ring.
      auto job = std::make_unique<Job>();
      job->spec = spec;
      job->seq = next_seq_++;
      job->submit_ns = now_ns();
      if (const Json* a = item.find("attempts")) {
        try {
          job->attempts = static_cast<int>(a->as_u64());
        } catch (const JsonError&) {
        }
      }
      const Json* statev = item.find("state");
      const std::string state =
          (statev != nullptr && statev->is_string()) ? statev->as_string()
                                                     : "queued";
      if (state == "done") {
        job->state = JobState::Done;
        if (const Json* r = item.find("result")) {
          job->result_json = r->dump();
        }
      } else if (state == "failed" || state == "shed" ||
                 state == "quarantined") {
        job->state = state == "failed"     ? JobState::Failed
                     : state == "shed"     ? JobState::Shed
                                           : JobState::Quarantined;
        if (const Json* e = item.find("error")) {
          if (e->is_string()) job->error = e->as_string();
        }
        if (const Json* k = item.find("error_kind")) {
          if (k->is_string()) job->error_kind = k->as_string();
        }
      } else {
        // queued or running at drain: re-enqueue; the per-job journal
        // resumes completed phases bit-identically.
        job->state = JobState::Queued;
        queue_.push_back(job.get());
        obs::add(obs::Counter::JobsResumed);
        ++resumed;
      }
      jobs_.emplace(spec.id, std::move(job));
    }
    update_gauges();
  } catch (const JsonError&) {
    return resumed;  // corrupt snapshot degrades to a cold start
  }
  return resumed;
}

// ---------------------------------------------------------------------
// Main loop.

std::size_t Daemon::run(const util::CancelToken& shutdown) {
  shutdown_ = shutdown;
  load_snapshot();

  const int listen_fd = listen_unix(options_.socket_path);
  pool_ = std::make_unique<util::ThreadPool>(
      std::max<std::size_t>(1, options_.executors));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_executors_ = false;
  }
  for (std::size_t i = 0; i < std::max<std::size_t>(1, options_.executors);
       ++i) {
    pool_->submit([this] { executor_loop(); });
  }
  watchdog_stop_.store(false);
  std::thread watchdog([this] { watchdog_loop(); });

  while (!shutdown_.stop_requested()) {
    int fd = -1;
    try {
      fd = accept_unix(listen_fd, util::Deadline::after(0.2));
    } catch (const WireError&) {
      break;  // listener broken: drain what we have
    }
    if (fd < 0) continue;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      ++active_conns_;
    }
    std::thread(&Daemon::serve_connection, this, fd).detach();
  }

  // Drain: stop accepting, cancel running attempts at their next
  // cancellation point, let connections notice and finish.
  ::close(listen_fd);
  ::unlink(options_.socket_path.c_str());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::Running && job->run_cancel.valid()) {
        job->run_cancel.request_stop();
      }
    }
  }
  done_cv_.notify_all();
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(conns_mutex_);
    conns_cv_.wait(lock, [this] { return active_conns_.load() == 0; });
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_executors_ = true;
  }
  work_cv_.notify_all();
  pool_.reset();  // joins the executor loops
  watchdog_stop_.store(true);
  watchdog.join();

  write_snapshot();
  std::size_t open = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, job] : jobs_) {
      if (!is_terminal(job->state)) ++open;
    }
  }
  return open;
}

}  // namespace scanc::svc
