// Command-line / environment configuration shared by the bench binaries.
//
// Flags (also settable by environment variable):
//   --circuits=a,b,c   SCANC_CIRCUITS   subset of suite circuits to run
//   --full             SCANC_FULL=1     include s35932
//   --fresh            SCANC_FRESH=1    ignore the result cache
//   --seed=N           SCANC_SEED       experiment seed (default 1)
//   --threads=N        SCANC_THREADS    fault-sim worker threads
//                                       (default 1; 0 = all hardware
//                                       threads; results are identical)
//   --fault-model=M    SCANC_FAULT_MODEL
//                                       fault model: stuck (default) or
//                                       transition; changes the fault
//                                       universe and every measured
//                                       number (cached separately)
//   --atpg=M           SCANC_ATPG       ATPG backend: podem (default,
//                                       structural only), sat (complete
//                                       SAT backend), or auto (PODEM
//                                       first, SAT resolves its aborts);
//                                       sat/auto prove untestable faults
//                                       out of the universe and measure
//                                       different numbers (cached
//                                       separately; docs/atpg.md)
//   --chains=N         SCANC_CHAINS     balanced scan chains for the
//                                       N_cyc cost model (default 1, the
//                                       paper's single chain; cached
//                                       separately when > 1)
//   --cache=PATH       SCANC_CACHE      cache file prefix
//   --no-dynamic                        skip the [2,3]-style baseline
//   --verbose          SCANC_VERBOSE=1  progress notes on stderr, one
//                                       "[circuit +secs] note" line per
//                                       stage and phase entry
//   --time-budget=S    SCANC_TIME_BUDGET
//                                       stop gracefully after S seconds
//                                       (fractional OK), keeping every
//                                       completed phase checkpointed;
//                                       rerunning resumes and the final
//                                       numbers match an uninterrupted
//                                       run (docs/robustness.md).  The
//                                       deadline is anchored when the
//                                       flags are parsed.
//   --trace-out=FILE   SCANC_TRACE      write a Chrome trace-event JSON
//                                       of phase/query spans to FILE
//   --metrics-out=FILE SCANC_METRICS    write the end-of-run metrics
//                                       snapshot (JSON) to FILE;
//                                       cumulative across kill/resume
//   --verbose-metrics  SCANC_VERBOSE_METRICS=1
//                                       print the metrics summary table
//                                       on stderr at exit
//   --heartbeat=S      SCANC_HEARTBEAT  print one progress line (phase,
//                                       faults, frames/s) every S
//                                       seconds on stderr
// Telemetry details: docs/observability.md.
#pragma once

#include <string>
#include <vector>

#include "expt/runner.hpp"

namespace scanc::expt {

struct BenchConfig {
  std::vector<std::string> circuits;  ///< empty = whole suite
  bool include_large = false;
  RunnerOptions runner;
  std::string trace_path;      ///< --trace-out (empty = no trace)
  std::string metrics_path;    ///< --metrics-out (empty = no snapshot)
  bool verbose_metrics = false;   ///< --verbose-metrics
  double heartbeat_seconds = 0.0; ///< --heartbeat (0 = off)
};

/// Parses argv and the environment.  Throws std::invalid_argument on an
/// unknown flag or unknown circuit name.
[[nodiscard]] BenchConfig parse_bench_args(int argc, const char* const* argv);

/// Runs the configured circuits (cache-aware).
[[nodiscard]] std::vector<CircuitRun> run_configured(
    const BenchConfig& config);

}  // namespace scanc::expt
