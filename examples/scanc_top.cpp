// scanc-top — live monitor for a running scanc-serve daemon.
//
//   build/examples/scanc_top --socket=PATH [--interval=S] [--duration=S]
//                            [--plain]
//
// Attaches an op:"watch" stream for every job (id "*") plus a polled
// op:"stats" connection, and renders per-job phase, round, detected
// faults and coverage %, alongside queue depth and registry occupancy.
// With a TTY the screen refreshes in place; --plain appends one table
// per refresh (what the CI soak captures).  Exits 0 when --duration
// elapses or the daemon drains the stream.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "svc/client.hpp"
#include "svc/wire.hpp"
#include "util/parse.hpp"

namespace {

using scanc::svc::Client;
using scanc::svc::Json;
using scanc::svc::WireError;

struct JobRow {
  std::string state = "?";
  std::string phase;
  std::uint64_t round = 0;
  std::uint64_t faults = 0;
  std::uint64_t total_faults = 0;  // from the pipeline begin event
  std::uint64_t last_seq = 0;
  std::uint64_t dropped = 0;
  std::uint64_t last_t_us = 0;
};

struct View {
  std::map<std::string, JobRow> jobs;
  std::uint64_t stream_dropped = 0;
  std::uint64_t events_seen = 0;
};

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t get_u64(const Json& j, const char* key) {
  const Json* v = j.find(key);
  if (v == nullptr) return 0;
  try {
    return v->as_u64();
  } catch (...) {
    return 0;
  }
}

std::string get_str(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::string();
}

/// Folds one stream frame into the view.  Returns false on the stream's
/// end frame.
bool apply_frame(View& view, const Json& frame) {
  if (frame.find("end") != nullptr) return false;
  if (const Json* d = frame.find("dropped")) {
    try {
      view.stream_dropped += d->as_u64();
    } catch (...) {
    }
    return true;
  }
  const Json* ev = frame.find("event");
  if (ev == nullptr) return true;
  ++view.events_seen;
  const std::string job = get_str(*ev, "job");
  JobRow& row = view.jobs[job.empty() ? "(local)" : job];
  const std::string kind = get_str(*ev, "kind");
  const std::string phase = get_str(*ev, "phase");
  row.last_seq = get_u64(*ev, "seq");
  row.last_t_us = get_u64(*ev, "t_us");
  if (kind == "job_state") {
    row.state = get_str(*ev, "note");
  } else if (kind == "phase_begin") {
    row.phase = phase;
    if (phase == "pipeline") row.total_faults = get_u64(*ev, "value");
  } else if (kind == "phase_end") {
    row.faults = std::max(row.faults, get_u64(*ev, "faults"));
    if (phase == "run_circuit") row.phase = "done";
  } else if (kind == "round") {
    row.round = get_u64(*ev, "value") + 1;
    row.faults = std::max(row.faults, get_u64(*ev, "faults"));
    row.phase = phase;
  }
  return true;
}

void render(const View& view, const Json* stats, bool plain) {
  if (!plain) std::fputs("\x1b[2J\x1b[H", stdout);
  std::printf("scanc-top  events=%llu stream_dropped=%llu",
              static_cast<unsigned long long>(view.events_seen),
              static_cast<unsigned long long>(view.stream_dropped));
  if (stats != nullptr) {
    std::printf("  queued=%llu running=%llu jobs=%llu",
                static_cast<unsigned long long>(get_u64(*stats, "queued")),
                static_cast<unsigned long long>(get_u64(*stats, "running")),
                static_cast<unsigned long long>(get_u64(*stats, "jobs")));
    std::printf("  reg_circuits=%llu reg_idle_sims=%llu",
                static_cast<unsigned long long>(
                    get_u64(*stats, "registry_circuits")),
                static_cast<unsigned long long>(
                    get_u64(*stats, "registry_idle_sims")));
  }
  std::printf("\n%-24s %-12s %-14s %8s %10s %8s %8s\n", "JOB", "STATE",
              "PHASE", "ROUND", "FAULTS", "COV%", "SEQ");
  for (const auto& [id, row] : view.jobs) {
    const double cov = row.total_faults != 0
                           ? 100.0 * static_cast<double>(row.faults) /
                                 static_cast<double>(row.total_faults)
                           : 0.0;
    std::printf("%-24s %-12s %-14s %8llu %10llu %7.1f%% %8llu\n",
                id.c_str(), row.state.c_str(), row.phase.c_str(),
                static_cast<unsigned long long>(row.round),
                static_cast<unsigned long long>(row.faults), cov,
                static_cast<unsigned long long>(row.last_seq));
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  double interval = 1.0;
  double duration = 0.0;  // 0 = until the stream ends
  bool plain = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    std::optional<double> d;
    if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(9);
    } else if (a.rfind("--interval=", 0) == 0 &&
               (d = scanc::util::parse_finite(a.c_str() + 11))) {
      interval = *d;
    } else if (a.rfind("--duration=", 0) == 0 &&
               (d = scanc::util::parse_finite(a.c_str() + 11))) {
      duration = *d;
    } else if (a == "--plain") {
      plain = true;
    } else {
      std::fprintf(stderr, "scanc-top: unknown or malformed argument: %s\n",
                   a.c_str());
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "scanc-top: --socket=PATH is required\n");
    return 2;
  }
  if (interval <= 0.0) interval = 1.0;
  if (isatty(STDOUT_FILENO) == 0) plain = true;

  Client watch;
  Client poll;
  try {
    watch.connect(socket_path);
    poll.connect(socket_path);
    const Json ack = watch.watch_start("*");
    const Json* ok = ack.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      std::fprintf(stderr, "scanc-top: watch rejected: %s\n",
                   ack.dump().c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scanc-top: cannot attach to %s: %s\n",
                 socket_path.c_str(), e.what());
    return 1;
  }

  View view;
  const double started = now_s();
  double next_render = started;
  bool stream_open = true;
  while (true) {
    if (duration > 0.0 && now_s() - started >= duration) break;
    if (stream_open) {
      try {
        // Drain the stream until the next render tick.
        const double budget = std::max(0.05, next_render - now_s());
        if (auto frame = watch.next_frame(std::min(budget, 0.25))) {
          if (!apply_frame(view, *frame)) {
            stream_open = false;  // daemon drained: one last render
          }
        }
      } catch (const std::exception&) {
        stream_open = false;
      }
    }
    if (now_s() >= next_render || !stream_open) {
      Json stats;
      const Json* stats_ptr = nullptr;
      try {
        stats = poll.stats(5.0);
        stats_ptr = &stats;
      } catch (const std::exception&) {
        // Stats connection gone (drain); render from the stream alone.
      }
      render(view, stats_ptr, plain);
      next_render = now_s() + interval;
    }
    if (!stream_open) break;
    if (duration <= 0.0 && !stream_open) break;
  }
  return 0;
}
