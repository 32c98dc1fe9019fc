#include "expt/options.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>

#include <iostream>

#include "gen/suite.hpp"
#include "util/cancel.hpp"
#include "util/event_bus.hpp"
#include "util/parse.hpp"
#include "util/telemetry.hpp"

namespace scanc::expt {
namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

std::vector<std::string> split_names(const std::string& arg) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= arg.size(); ++i) {
    if (i == arg.size() || arg[i] == ',') {
      if (i > start) out.push_back(arg.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

/// Parses a fault-model name; throws so a typo does not silently measure
/// the default model.
fault::FaultModelKind parse_model(const std::string& flag,
                                  const char* value) {
  const std::string v = value;
  if (v == "stuck") return fault::FaultModelKind::StuckAt;
  if (v == "transition") return fault::FaultModelKind::Transition;
  throw std::invalid_argument("bad fault model for " + flag + ": " + v +
                              " (expected stuck|transition)");
}

/// Parses an ATPG backend name; throws so a typo does not silently run
/// the structural default and leave aborted faults unresolved.
atpg::AtpgBackend parse_atpg(const std::string& flag, const char* value) {
  const std::string v = value;
  if (v == "podem") return atpg::AtpgBackend::Podem;
  if (v == "sat") return atpg::AtpgBackend::Sat;
  if (v == "auto") return atpg::AtpgBackend::Auto;
  throw std::invalid_argument("bad atpg backend for " + flag + ": " + v +
                              " (expected podem|sat|auto)");
}

/// Parses a time budget in (fractional) seconds; throws on garbage so a
/// typo does not silently run without a deadline.
double parse_seconds(const std::string& flag, const char* value) {
  const std::optional<double> s = util::parse_finite(value);
  if (!s || !(*s > 0.0)) {
    throw std::invalid_argument("bad time budget for " + flag + ": " +
                                value);
  }
  return *s;
}

/// Parses an unsigned count (seed, threads, chains); throws so a typo
/// does not silently become 0 — seed 0, or "all cores" for threads.
std::uint64_t parse_count(const std::string& flag, const char* value) {
  if (const std::optional<std::uint64_t> n = util::parse_uint(value)) {
    return *n;
  }
  throw std::invalid_argument("bad value for " + flag + ": " + value +
                              " (expected an unsigned integer)");
}

}  // namespace

BenchConfig parse_bench_args(int argc, const char* const* argv) {
  BenchConfig cfg;
  if (const char* v = std::getenv("SCANC_CIRCUITS")) {
    cfg.circuits = split_names(v);
  }
  cfg.include_large = env_flag("SCANC_FULL");
  cfg.runner.force_fresh = env_flag("SCANC_FRESH");
  cfg.runner.verbose = env_flag("SCANC_VERBOSE");
  if (const char* v = std::getenv("SCANC_SEED")) {
    cfg.runner.seed = parse_count("SCANC_SEED", v);
  }
  if (const char* v = std::getenv("SCANC_THREADS")) {
    cfg.runner.num_threads = parse_count("SCANC_THREADS", v);
  }
  if (const char* v = std::getenv("SCANC_FAULT_MODEL")) {
    cfg.runner.fault_model = parse_model("SCANC_FAULT_MODEL", v);
  }
  if (const char* v = std::getenv("SCANC_ATPG")) {
    cfg.runner.atpg = parse_atpg("SCANC_ATPG", v);
  }
  if (const char* v = std::getenv("SCANC_CHAINS")) {
    cfg.runner.num_chains = parse_count("SCANC_CHAINS", v);
  }
  if (const char* v = std::getenv("SCANC_CACHE")) {
    cfg.runner.cache_path = v;
  }
  if (const char* v = std::getenv("SCANC_TIME_BUDGET")) {
    cfg.runner.cancel = util::CancelToken::make(
        util::Deadline::after(parse_seconds("SCANC_TIME_BUDGET", v)));
  }
  if (const char* v = std::getenv("SCANC_TRACE")) cfg.trace_path = v;
  if (const char* v = std::getenv("SCANC_METRICS")) cfg.metrics_path = v;
  if (const char* v = std::getenv("SCANC_EVENT_LOG")) {
    cfg.event_log_path = v;
  }
  cfg.verbose_metrics = env_flag("SCANC_VERBOSE_METRICS");
  if (const char* v = std::getenv("SCANC_HEARTBEAT")) {
    cfg.heartbeat_seconds = parse_seconds("SCANC_HEARTBEAT", v);
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--circuits=", 0) == 0) {
      cfg.circuits = split_names(arg.substr(11));
    } else if (arg == "--full") {
      cfg.include_large = true;
    } else if (arg == "--fresh") {
      cfg.runner.force_fresh = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      cfg.runner.seed = parse_count("--seed", arg.c_str() + 7);
    } else if (arg.rfind("--threads=", 0) == 0) {
      cfg.runner.num_threads = parse_count("--threads", arg.c_str() + 10);
    } else if (arg.rfind("--fault-model=", 0) == 0) {
      cfg.runner.fault_model =
          parse_model("--fault-model", arg.c_str() + 14);
    } else if (arg.rfind("--atpg=", 0) == 0) {
      cfg.runner.atpg = parse_atpg("--atpg", arg.c_str() + 7);
    } else if (arg.rfind("--chains=", 0) == 0) {
      cfg.runner.num_chains = parse_count("--chains", arg.c_str() + 9);
    } else if (arg.rfind("--cache=", 0) == 0) {
      cfg.runner.cache_path = arg.substr(8);
    } else if (arg.rfind("--time-budget=", 0) == 0) {
      // Anchored here, at parse time: the budget covers the whole
      // invocation, not each circuit.
      cfg.runner.cancel = util::CancelToken::make(util::Deadline::after(
          parse_seconds("--time-budget", arg.c_str() + 14)));
    } else if (arg == "--no-dynamic") {
      cfg.runner.run_dynamic_baseline = false;
    } else if (arg == "--verbose") {
      cfg.runner.verbose = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      cfg.trace_path = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      cfg.metrics_path = arg.substr(14);
    } else if (arg.rfind("--event-log=", 0) == 0) {
      cfg.event_log_path = arg.substr(12);
    } else if (arg == "--verbose-metrics") {
      cfg.verbose_metrics = true;
    } else if (arg.rfind("--heartbeat=", 0) == 0) {
      cfg.heartbeat_seconds =
          parse_seconds("--heartbeat", arg.c_str() + 12);
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }

  for (const std::string& name : cfg.circuits) {
    if (!gen::find_suite_entry(name)) {
      throw std::invalid_argument("unknown circuit: " + name);
    }
  }
  return cfg;
}

std::vector<CircuitRun> run_configured(const BenchConfig& config) {
  // Telemetry sinks wrap the whole run: the trace is finished and the
  // metrics snapshot written even when a circuit cancels mid-phase.
  if (!config.trace_path.empty() && !obs::open_trace(config.trace_path)) {
    std::cerr << "warning: cannot open trace file " << config.trace_path
              << "\n";
  }
  if (!config.event_log_path.empty() &&
      !obs::open_event_log(config.event_log_path)) {
    std::cerr << "warning: cannot open event log " << config.event_log_path
              << "\n";
  }
  obs::Heartbeat heartbeat;
  if (config.heartbeat_seconds > 0.0) {
    heartbeat.start(config.heartbeat_seconds);
  }

  std::vector<CircuitRun> runs;
  if (config.circuits.empty()) {
    runs = run_suite(config.include_large, config.runner);
  } else {
    for (const std::string& name : config.circuits) {
      if (config.runner.cancel.stop_requested()) break;
      runs.push_back(
          run_circuit(*gen::find_suite_entry(name), config.runner));
      if (!runs.back().completed) break;
    }
  }

  heartbeat.stop();
  // Event log before trace: the final phase-end events published above
  // must be flushed before any sink teardown seals the run.
  obs::shutdown_sinks();
  if (!config.metrics_path.empty() &&
      !obs::write_metrics_file(config.metrics_path)) {
    std::cerr << "warning: cannot write metrics file "
              << config.metrics_path << "\n";
  }
  if (config.verbose_metrics) obs::print_summary(std::cerr);
  return runs;
}

}  // namespace scanc::expt
