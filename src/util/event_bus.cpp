#include "util/event_bus.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "util/trace_writer.hpp"

namespace scanc::obs {
namespace {

// Caps keeping the bus bounded no matter how hostile the workload is:
// at most this many distinct jobs keep sequence/history state (evicting
// the least-recently-published job), and a subscription queue never
// exceeds its requested capacity.
constexpr std::size_t kMaxTrackedJobs = 1024;

const std::string kEmptyJob;
thread_local const EventJobScope* t_scope = nullptr;

void append_json_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

}  // namespace

const char* to_string(EventKind k) noexcept {
  switch (k) {
    case EventKind::PhaseBegin: return "phase_begin";
    case EventKind::PhaseEnd: return "phase_end";
    case EventKind::Round: return "round";
    case EventKind::Counters: return "counters";
    case EventKind::JobState: return "job_state";
    case EventKind::kCount: break;
  }
  return "unknown";
}

EventKind event_kind_from(const std::string& name) noexcept {
  for (int i = 0; i < static_cast<int>(EventKind::kCount); ++i) {
    auto k = static_cast<EventKind>(i);
    if (name == to_string(k)) return k;
  }
  return EventKind::kCount;
}

std::string event_json(const Event& e) {
  std::string out;
  out.reserve(96 + e.job.size() + e.phase.size() + e.note.size());
  out += "{\"kind\":";
  append_json_string(out, to_string(e.kind));
  out += ",\"job\":";
  append_json_string(out, e.job);
  out += ",\"phase\":";
  append_json_string(out, e.phase);
  out += ",\"seq\":" + std::to_string(e.seq);
  out += ",\"t_us\":" + std::to_string(e.t_us);
  out += ",\"faults\":" + std::to_string(e.faults);
  out += ",\"value\":" + std::to_string(e.value);
  out += ",\"note\":";
  append_json_string(out, e.note);
  out += "}";
  return out;
}

// ---------------------------------------------------------------------
// Subscription state.

struct EventSubscription::State {
  std::mutex mutex;
  std::condition_variable cv;
  std::string filter;          // "" = every job
  std::size_t capacity = 256;
  std::deque<Event> queue;
  std::uint64_t dropped_pending = 0;  // since the last poll()
  bool detached = false;              // bus dropped its reference
};

std::size_t EventSubscription::poll(std::vector<Event>& out,
                                    double timeout_seconds,
                                    std::uint64_t* dropped) {
  auto& st = *state_;
  std::unique_lock<std::mutex> lock(st.mutex);
  if (st.queue.empty() && st.dropped_pending == 0 && timeout_seconds > 0) {
    st.cv.wait_for(
        lock, std::chrono::duration<double>(timeout_seconds), [&st] {
          return !st.queue.empty() || st.dropped_pending != 0 || st.detached;
        });
  }
  if (dropped != nullptr) *dropped = st.dropped_pending;
  st.dropped_pending = 0;
  std::size_t n = st.queue.size();
  for (auto& ev : st.queue) out.push_back(std::move(ev));
  st.queue.clear();
  return n;
}

// ---------------------------------------------------------------------
// The bus.

namespace {

struct JobRecord {
  std::uint64_t next_seq = 0;
  std::uint64_t last_touch = 0;       // bus-wide publish tick, for eviction
  std::uint64_t history_dropped = 0;
  std::deque<Event> history;
};

struct EventLog {
  std::FILE* file = nullptr;
  std::string path;
  std::uint64_t max_bytes = 0;
  std::uint64_t written = 0;
};

struct Bus {
  std::mutex mutex;
  std::vector<std::shared_ptr<EventSubscription::State>> subs;
  std::unordered_map<std::string, JobRecord> jobs;
  std::size_t history_capacity = 0;
  std::uint64_t tick = 0;
  EventLog log;

  // Recomputes the fast-path enabled bit from the attached sinks.  Call
  // with `mutex` held.
  void refresh_sinks() {
    std::uint32_t n = static_cast<std::uint32_t>(subs.size());
    if (history_capacity != 0) ++n;
    if (log.file != nullptr) ++n;
    events_internal::g_sinks.store(n, std::memory_order_relaxed);
  }

  JobRecord& touch(const std::string& job) {
    auto it = jobs.find(job);
    if (it == jobs.end()) {
      if (jobs.size() >= kMaxTrackedJobs) {
        auto victim = jobs.begin();
        for (auto jt = jobs.begin(); jt != jobs.end(); ++jt) {
          if (jt->second.last_touch < victim->second.last_touch) victim = jt;
        }
        jobs.erase(victim);
      }
      it = jobs.emplace(job, JobRecord{}).first;
    }
    it->second.last_touch = ++tick;
    return it->second;
  }

  void log_line(const Event& e) {
    if (log.file == nullptr) return;
    std::string line = event_json(e);
    line.push_back('\n');
    if (log.max_bytes != 0 && log.written + line.size() > log.max_bytes &&
        log.written > 0) {
      std::fclose(log.file);
      std::string rotated = log.path + ".1";
      std::remove(rotated.c_str());
      std::rename(log.path.c_str(), rotated.c_str());
      log.file = std::fopen(log.path.c_str(), "w");
      log.written = 0;
      if (log.file == nullptr) {
        refresh_sinks();
        return;
      }
    }
    std::fwrite(line.data(), 1, line.size(), log.file);
    log.written += line.size();
  }

  void publish(const std::string& job, EventKind kind, const char* phase,
               std::uint64_t faults, std::uint64_t value, const char* note) {
    Event e;
    e.kind = kind;
    e.job = job;
    e.phase = phase != nullptr ? phase : "";
    e.note = note != nullptr ? note : "";
    e.faults = faults;
    e.value = value;
    e.t_us = now_micros();

    std::vector<std::shared_ptr<EventSubscription::State>> targets;
    {
      std::lock_guard<std::mutex> lock(mutex);
      JobRecord& rec = touch(job);
      e.seq = ++rec.next_seq;
      if (history_capacity != 0) {
        if (rec.history.size() >= history_capacity) {
          rec.history.pop_front();
          ++rec.history_dropped;
        }
        rec.history.push_back(e);
      }
      log_line(e);
      for (auto& sub : subs) {
        if (sub->filter.empty() || sub->filter == job) targets.push_back(sub);
      }
    }
    // Queue into each matching subscription outside the bus lock so one
    // subscriber's mutex never serializes unrelated publishers.
    for (auto& sub : targets) {
      {
        std::lock_guard<std::mutex> lock(sub->mutex);
        if (sub->queue.size() >= sub->capacity) {
          ++sub->dropped_pending;
        } else {
          sub->queue.push_back(e);
        }
      }
      sub->cv.notify_one();
    }
  }
};

Bus& bus() {
  static Bus* b = new Bus;  // leaked: publishers may outlive main()'s exit
  return *b;
}

}  // namespace

namespace events_internal {

std::atomic<std::uint32_t> g_sinks{0};

void publish_slow(EventKind kind, const char* phase, std::uint64_t faults,
                  std::uint64_t value, const char* note) noexcept {
  try {
    bus().publish(current_event_job(), kind, phase, faults, value, note);
  } catch (...) {
    // Telemetry must never take down the workload.
  }
}

void publish_slow_job(const std::string& job, EventKind kind,
                      const char* phase, std::uint64_t faults,
                      std::uint64_t value, const char* note) noexcept {
  try {
    bus().publish(job, kind, phase, faults, value, note);
  } catch (...) {
  }
}

}  // namespace events_internal

EventJobScope::EventJobScope(std::string job_id, ProgressHook progress) noexcept
    : job_(std::move(job_id)),
      progress_(std::move(progress)),
      previous_(t_scope) {
  t_scope = this;
}

EventJobScope::~EventJobScope() { t_scope = previous_; }

const std::string& current_event_job() noexcept {
  return t_scope != nullptr ? t_scope->job_ : kEmptyJob;
}

void progress_note(const char* note) {
  if (t_scope != nullptr && t_scope->progress_) t_scope->progress_(note);
}

EventSubscription::~EventSubscription() {
  if (state_ == nullptr) return;
  Bus& b = bus();
  {
    std::lock_guard<std::mutex> lock(b.mutex);
    for (auto it = b.subs.begin(); it != b.subs.end(); ++it) {
      if (it->get() == state_.get()) {
        b.subs.erase(it);
        break;
      }
    }
    b.refresh_sinks();
  }
  {
    std::lock_guard<std::mutex> lock(state_->mutex);
    state_->detached = true;
  }
  state_->cv.notify_all();
}

std::shared_ptr<EventSubscription> subscribe(std::string job_filter,
                                             std::size_t capacity) {
  auto sub = std::shared_ptr<EventSubscription>(new EventSubscription);
  sub->state_ = std::make_shared<EventSubscription::State>();
  sub->state_->filter = std::move(job_filter);
  sub->state_->capacity = capacity != 0 ? capacity : 1;
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.subs.push_back(sub->state_);
  b.refresh_sinks();
  return sub;
}

void set_event_history(std::size_t capacity_per_job) {
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.history_capacity = capacity_per_job;
  if (capacity_per_job == 0) {
    for (auto& [id, rec] : b.jobs) {
      rec.history.clear();
      rec.history_dropped = 0;
    }
  }
  b.refresh_sinks();
}

EventHistory event_history(const std::string& job) {
  EventHistory out;
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  auto it = b.jobs.find(job);
  if (it == b.jobs.end()) return out;
  out.events.assign(it->second.history.begin(), it->second.history.end());
  out.dropped = it->second.history_dropped;
  return out;
}

void seed_event_history(const std::string& job, std::vector<Event> events,
                        std::uint64_t dropped) {
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  if (b.history_capacity == 0) return;
  JobRecord& rec = b.touch(job);
  rec.history.clear();
  rec.history_dropped = dropped;
  std::uint64_t max_seq = rec.next_seq;
  for (auto& e : events) {
    if (e.seq > max_seq) max_seq = e.seq;
    if (rec.history.size() >= b.history_capacity) {
      rec.history.pop_front();
      ++rec.history_dropped;
    }
    rec.history.push_back(std::move(e));
  }
  rec.next_seq = max_seq;
}

bool open_event_log(const std::string& path, std::uint64_t max_bytes) {
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  if (b.log.file != nullptr) {
    std::fclose(b.log.file);
    b.log.file = nullptr;
  }
  b.log.file = std::fopen(path.c_str(), "w");
  b.log.path = path;
  b.log.max_bytes = max_bytes;
  b.log.written = 0;
  b.refresh_sinks();
  return b.log.file != nullptr;
}

void close_event_log() {
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  if (b.log.file != nullptr) {
    std::fflush(b.log.file);
    std::fclose(b.log.file);
    b.log.file = nullptr;
  }
  b.refresh_sinks();
}

void shutdown_sinks() {
  close_event_log();
  close_trace();
}

void reset_events() {
  Bus& b = bus();
  std::lock_guard<std::mutex> lock(b.mutex);
  if (b.log.file != nullptr) {
    std::fclose(b.log.file);
    b.log.file = nullptr;
  }
  b.jobs.clear();
  b.tick = 0;
  for (auto& sub : b.subs) {
    std::lock_guard<std::mutex> sl(sub->mutex);
    sub->queue.clear();
    sub->dropped_pending = 0;
  }
  b.refresh_sinks();
}

}  // namespace scanc::obs
