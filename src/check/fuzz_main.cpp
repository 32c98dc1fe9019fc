// fuzz_check — differential fuzzing driver.
//
//   fuzz_check [--seed=N] [--iters=N] [--time-budget=SECS] [--threads=N]
//              [--fault-model=stuck|transition] [--no-oracle]
//              [--atpg=off|sat|auto] [--lane-width=64|256|512|auto]
//              [--max-case-seconds=SECS] [--repro-out=PATH] [--quiet]
//
// Expands case seeds derived from --seed into workloads and runs each
// through the full comparison matrix (check/differ.hpp).  On the first
// failing case the workload is shrunk and a standalone repro is printed
// (and written to --repro-out if given); exit status 1.  A clean run
// prints one summary line and exits 0.  --time-budget stops cleanly
// after the given wall time even if --iters has not been reached (the
// CI smoke job runs a fixed seed set under a ~60 s budget).
// --max-case-seconds arms a per-case watchdog: a case that outlives it
// is cut at the next comparison boundary and counted as a timeout
// (obs.check_case_timeouts), never as a divergence — it protects a
// fixed budget from one pathologically slow workload.  --atpg adds the
// SAT ATPG laws (check/differ.hpp) on top of the simulator matrix.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "check/differ.hpp"
#include "check/shrink.hpp"
#include "check/workload.hpp"
#include "fault/model.hpp"
#include "sim/simd.hpp"
#include "util/rng.hpp"
#include "util/parse.hpp"
#include "util/telemetry.hpp"

namespace {

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t iters = 1000;
  double time_budget = 0.0;  // seconds; 0 = unlimited
  double max_case_seconds = 0.0;  // per-case watchdog; 0 = disabled
  std::size_t threads = 8;
  scanc::fault::FaultModelKind model = scanc::fault::FaultModelKind::StuckAt;
  scanc::sim::LaneWidth lane_width = scanc::sim::LaneWidth::Auto;
  scanc::check::AtpgCheck atpg = scanc::check::AtpgCheck::Off;
  bool oracle = true;
  bool quiet = false;
  std::string repro_out;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      return a.c_str() + std::strlen(prefix);
    };
    std::optional<std::uint64_t> n;
    std::optional<double> d;
    if (a.rfind("--seed=", 0) == 0 &&
        (n = scanc::util::parse_uint(value("--seed=")))) {
      opt.seed = *n;
    } else if (a.rfind("--iters=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--iters=")))) {
      opt.iters = *n;
    } else if (a.rfind("--time-budget=", 0) == 0 &&
               (d = scanc::util::parse_finite(value("--time-budget=")))) {
      opt.time_budget = *d;
    } else if (a.rfind("--max-case-seconds=", 0) == 0 &&
               (d = scanc::util::parse_finite(
                    value("--max-case-seconds=")))) {
      opt.max_case_seconds = *d;
    } else if (a.rfind("--threads=", 0) == 0 &&
               (n = scanc::util::parse_uint(value("--threads=")))) {
      opt.threads = static_cast<std::size_t>(*n);
    } else if (a.rfind("--fault-model=", 0) == 0) {
      const std::string m = value("--fault-model=");
      if (m == "stuck") {
        opt.model = scanc::fault::FaultModelKind::StuckAt;
      } else if (m == "transition") {
        opt.model = scanc::fault::FaultModelKind::Transition;
      } else {
        std::cerr << "fuzz_check: unknown fault model: " << m << "\n";
        return false;
      }
    } else if (a.rfind("--atpg=", 0) == 0) {
      const std::string m = value("--atpg=");
      if (m == "off") {
        opt.atpg = scanc::check::AtpgCheck::Off;
      } else if (m == "sat") {
        opt.atpg = scanc::check::AtpgCheck::Sat;
      } else if (m == "auto") {
        opt.atpg = scanc::check::AtpgCheck::Auto;
      } else {
        std::cerr << "fuzz_check: unknown atpg mode: " << m << "\n";
        return false;
      }
    } else if (a.rfind("--lane-width=", 0) == 0) {
      const auto lw = scanc::sim::parse_lane_width(value("--lane-width="));
      if (!lw) {
        std::cerr << "fuzz_check: unknown lane width: "
                  << value("--lane-width=") << "\n";
        return false;
      }
      opt.lane_width = *lw;
    } else if (a == "--no-oracle") {
      opt.oracle = false;
    } else if (a == "--quiet") {
      opt.quiet = true;
    } else if (a.rfind("--repro-out=", 0) == 0) {
      opt.repro_out = value("--repro-out=");
    } else {
      std::cerr << "fuzz_check: unknown or malformed argument: " << a << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return 2;

  scanc::check::CheckConfig cfg;
  cfg.threads = opt.threads;
  cfg.run_oracle = opt.oracle;
  cfg.lane_width = opt.lane_width;
  cfg.max_case_seconds = opt.max_case_seconds;
  cfg.atpg = opt.atpg;

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  std::uint64_t state = opt.seed;
  std::uint64_t cases = 0;
  std::uint64_t timeouts = 0;
  std::size_t comparisons = 0;
  for (std::uint64_t i = 0; i < opt.iters; ++i) {
    if (opt.time_budget > 0.0 && elapsed() >= opt.time_budget) break;
    const std::uint64_t case_seed = scanc::util::splitmix64(state);
    const scanc::check::Workload w = scanc::check::make_workload(
        case_seed, scanc::fault::FaultModel::get(opt.model));
    const scanc::check::CaseReport report = scanc::check::check_case(w, cfg);
    ++cases;
    comparisons += report.comparisons;
    if (report.timed_out) {
      ++timeouts;
      if (!opt.quiet) {
        std::cerr << "[fuzz_check] case seed=" << case_seed
                  << " cut by --max-case-seconds=" << opt.max_case_seconds
                  << " after " << report.comparisons << " comparisons\n";
      }
    }
    if (!opt.quiet && cases % 500 == 0) {
      std::cerr << "[fuzz_check] " << cases << " cases, " << comparisons
                << " comparisons, " << elapsed() << " s\n";
    }
    if (!report.failed()) continue;

    std::cerr << "[fuzz_check] case seed=" << case_seed << " (iteration "
              << i << " of --seed=" << opt.seed << ") FAILED with "
              << report.divergences.size() << " divergence(s); shrinking\n";
    const scanc::check::ShrinkResult shrunk =
        scanc::check::shrink_case(w, cfg);
    scanc::check::write_repro(std::cout, shrunk.workload, shrunk.report);
    if (!opt.repro_out.empty()) {
      std::ofstream f(opt.repro_out);
      if (f) {
        scanc::check::write_repro(f, shrunk.workload, shrunk.report);
        std::cerr << "[fuzz_check] repro written to " << opt.repro_out
                  << "\n";
      } else {
        std::cerr << "[fuzz_check] cannot write " << opt.repro_out << "\n";
      }
    }
    return 1;
  }

  std::cout << "fuzz_check: " << cases << " cases, " << comparisons
            << " comparisons, 0 divergences, " << timeouts << " timeouts ("
        <<  elapsed() << " s, seed=" << opt.seed
        << ", model=" << scanc::fault::FaultModel::get(opt.model).name()
        << ")\n";
  return 0;
}
