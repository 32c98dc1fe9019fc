// scanc-serve — the compaction service daemon (docs/service.md).
//
//   scanc-serve --socket=PATH [--state-dir=DIR] [--executors=N]
//               [--max-queue=N] [--max-retries=N] [--stall-seconds=S]
//               [--deadline-check-seconds=S] [--metrics-out=PATH]
//               [--trace-out=PATH] [--event-log=PATH]
//               [--event-log-max-bytes=N] [--heartbeat=SECS] [--quiet]
//
// Serves length-prefixed JSON requests on the AF_UNIX socket until
// SIGINT/SIGTERM (or a client "shutdown" request), then drains: stops
// accepting, cancels running jobs at their next checkpoint, persists the
// resume snapshot under --state-dir, and exits 0.  A relaunched daemon
// with the same --state-dir resumes interrupted jobs bit-identically.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "svc/daemon.hpp"
#include "util/cancel.hpp"
#include "util/event_bus.hpp"
#include "util/parse.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace {

struct Options {
  scanc::svc::DaemonOptions daemon;
  std::string metrics_out;
  std::string trace_out;
  std::string event_log;
  std::uint64_t event_log_max_bytes = 8u << 20;
  double heartbeat = 0.0;
  bool quiet = false;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return a.c_str() + std::strlen(prefix);
    };
    std::optional<std::uint64_t> n;
    std::optional<double> d;
    if (a.rfind("--socket=", 0) == 0) {
      opt.daemon.socket_path = value("--socket=");
    } else if (a.rfind("--state-dir=", 0) == 0) {
      opt.daemon.state_dir = value("--state-dir=");
    } else if (a.rfind("--executors=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--executors=")))) {
      opt.daemon.executors = static_cast<std::size_t>(*n);
    } else if (a.rfind("--max-queue=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--max-queue=")))) {
      opt.daemon.max_queue = static_cast<std::size_t>(*n);
    } else if (a.rfind("--max-retries=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--max-retries="))) &&
               *n <= static_cast<std::uint64_t>(
                         std::numeric_limits<int>::max())) {
      opt.daemon.max_retries = static_cast<int>(*n);
    } else if (a.rfind("--stall-seconds=", 0) == 0 &&
               (d = scanc::util::parse_finite(value("--stall-seconds=")))) {
      opt.daemon.stall_seconds = *d;
    } else if (a.rfind("--deadline-check-seconds=", 0) == 0 &&
               (d = scanc::util::parse_finite(
                    value("--deadline-check-seconds=")))) {
      opt.daemon.watchdog_interval_seconds = *d;
    } else if (a.rfind("--metrics-out=", 0) == 0) {
      opt.metrics_out = value("--metrics-out=");
    } else if (a.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = value("--trace-out=");
    } else if (a.rfind("--event-log=", 0) == 0) {
      opt.event_log = value("--event-log=");
    } else if (a.rfind("--event-log-max-bytes=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--event-log-max-bytes=")))) {
      opt.event_log_max_bytes = *n;
    } else if (a.rfind("--heartbeat=", 0) == 0 &&
               (d = scanc::util::parse_finite(value("--heartbeat=")))) {
      opt.heartbeat = *d;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else {
      std::cerr << "scanc-serve: unknown or malformed argument: " << a << "\n";
      return false;
    }
  }
  if (opt.daemon.socket_path.empty()) {
    std::cerr << "scanc-serve: --socket=PATH is required\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (!opt.daemon.state_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.daemon.state_dir, ec);
    if (ec) {
      std::cerr << "scanc-serve: cannot create state dir "
                << opt.daemon.state_dir << ": " << ec.message() << "\n";
      return 2;
    }
  }

  const scanc::util::CancelToken shutdown = scanc::util::CancelToken::make();
  const scanc::util::ScopedSignalCancel on_signal(shutdown);

  scanc::obs::Heartbeat heartbeat;
  if (opt.heartbeat > 0.0) heartbeat.start(opt.heartbeat);
  if (!opt.trace_out.empty() && !scanc::obs::open_trace(opt.trace_out)) {
    std::cerr << "scanc-serve: cannot open trace file " << opt.trace_out
              << "\n";
  }
  if (!opt.event_log.empty() &&
      !scanc::obs::open_event_log(opt.event_log, opt.event_log_max_bytes)) {
    std::cerr << "scanc-serve: cannot open event log " << opt.event_log
              << "\n";
  }

  if (!opt.quiet) {
    std::cerr << "scanc-serve: listening on " << opt.daemon.socket_path
              << "\n";
  }
  std::size_t open = 0;
  try {
    scanc::svc::Daemon daemon(opt.daemon);
    open = daemon.run(shutdown);
  } catch (const std::exception& e) {
    std::cerr << "scanc-serve: fatal: " << e.what() << "\n";
    return 1;
  }
  heartbeat.stop();
  // SIGTERM drain ordering: the daemon has already published its final
  // job-state events, so flush+close the event log before the trace is
  // sealed — shutdown_sinks() pins that order (tests/resilience_test.cpp).
  scanc::obs::shutdown_sinks();

  if (!opt.metrics_out.empty()) {
    if (!scanc::obs::write_metrics_file(opt.metrics_out)) {
      std::cerr << "scanc-serve: failed to write " << opt.metrics_out << "\n";
    }
  }
  if (!opt.quiet) {
    std::cerr << "scanc-serve: drained (" << open
              << " job(s) re-queued for resume)\n";
  }
  return 0;
}
