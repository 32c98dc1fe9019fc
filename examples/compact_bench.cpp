// Command-line compaction flow for arbitrary .bench netlists: the tool a
// downstream user runs on their own circuit.
//
//   build/examples/compact_bench <file.bench> [options]
//
// Options:
//   --t0=greedy|random     T0 source (default greedy)
//   --t0-length=N          length cap for T0 (default 1024)
//   --seed=N               experiment seed (default 1)
//   --out=FILE             write the compacted test set to FILE
//   --baseline             also run and report the [4] baseline
//   --trace-out=FILE       write a Chrome trace of phase/query spans
//   --metrics-out=FILE     write the run metrics snapshot (JSON)
//   --verbose-metrics      print the metrics summary table on stderr
//   --heartbeat=S          progress line every S seconds on stderr
//
// Without a file argument the embedded s27 netlist is used.
// Telemetry details: docs/observability.md.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "atpg/comb_tset.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/embedded.hpp"
#include "netlist/bench_parser.hpp"
#include "tcomp/baselines.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"
#include "util/parse.hpp"
#include "util/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace scanc;

  std::string file;
  std::string t0_source = "greedy";
  std::string out_path;
  std::string trace_path;
  std::string metrics_path;
  std::size_t t0_length = 1024;
  std::uint64_t seed = 1;
  bool baseline = false;
  bool verbose_metrics = false;
  double heartbeat_seconds = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::optional<std::uint64_t> n;
    std::optional<double> d;
    if (arg.rfind("--t0=", 0) == 0) {
      t0_source = arg.substr(5);
    } else if (arg.rfind("--t0-length=", 0) == 0 &&
               (n = util::parse_uint(arg.c_str() + 12))) {
      t0_length = static_cast<std::size_t>(*n);
    } else if (arg.rfind("--seed=", 0) == 0 &&
               (n = util::parse_uint(arg.c_str() + 7))) {
      seed = *n;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--baseline") {
      baseline = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(12);
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_path = arg.substr(14);
    } else if (arg == "--verbose-metrics") {
      verbose_metrics = true;
    } else if (arg.rfind("--heartbeat=", 0) == 0 &&
               (d = util::parse_finite(arg.c_str() + 12))) {
      heartbeat_seconds = *d;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown or malformed option %s\n", arg.c_str());
      return 1;
    } else {
      file = arg;
    }
  }

  if (!trace_path.empty() && !obs::open_trace(trace_path)) {
    std::fprintf(stderr, "warning: cannot open trace file %s\n",
                 trace_path.c_str());
  }
  obs::Heartbeat heartbeat;
  if (heartbeat_seconds > 0.0) heartbeat.start(heartbeat_seconds);
  // Flush telemetry on every exit path (including errors), so partial
  // runs still leave a loadable trace and snapshot.
  const auto flush_obs = [&] {
    heartbeat.stop();
    obs::close_trace();
    if (!metrics_path.empty() && !obs::write_metrics_file(metrics_path)) {
      std::fprintf(stderr, "warning: cannot write metrics file %s\n",
                   metrics_path.c_str());
    }
    if (verbose_metrics) obs::print_summary(std::cerr);
  };

  try {
    const netlist::Circuit circuit =
        file.empty() ? gen::make_s27() : netlist::load_bench_file(file);
    const fault::FaultList faults = fault::FaultList::build(circuit);
    fault::FaultSimulator fsim(circuit, faults);
    const std::size_t nsv = circuit.num_flip_flops();
    std::printf("%s: %zu PIs, %zu POs, %zu FFs, %zu gates, %zu fault "
                "classes\n",
                circuit.name().c_str(), circuit.num_inputs(),
                circuit.num_outputs(), nsv, circuit.num_gates(),
                faults.num_classes());

    atpg::CombTestSetOptions copt;
    copt.seed = seed;
    const atpg::CombTestSet comb =
        atpg::generate_comb_test_set(circuit, faults, copt);
    std::printf("C: %zu tests cover %zu classes (%zu untestable, "
                "%zu aborted)\n",
                comb.tests.size(), comb.detected.count(),
                comb.proven_untestable, comb.aborted);

    sim::Sequence t0;
    if (t0_source == "random") {
      t0 = tgen::random_test_sequence(circuit, t0_length, seed);
    } else if (t0_source == "greedy") {
      tgen::GreedyTgenOptions gopt;
      gopt.seed = seed;
      gopt.max_length = t0_length;
      t0 = tgen::generate_test_sequence(circuit, faults, gopt).sequence;
    } else {
      std::fprintf(stderr, "unknown --t0 source '%s'\n",
                   t0_source.c_str());
      return 1;
    }
    std::printf("T0 (%s): %zu vectors\n", t0_source.c_str(), t0.length());

    const tcomp::PipelineResult r =
        tcomp::run_pipeline(fsim, t0, comb.tests);
    std::printf("tau_seq: %zu at-speed vectors, %zu classes; +%zu "
                "top-off tests\n",
                r.tau_seq.seq.length(), r.f_seq.count(), r.added_tests);
    std::printf("cycles: initial %llu, compacted %llu; coverage %zu/%zu\n",
                static_cast<unsigned long long>(
                    tcomp::clock_cycles(r.initial, nsv)),
                static_cast<unsigned long long>(
                    tcomp::clock_cycles(r.compacted, nsv)),
                r.final_coverage.count(), faults.num_classes());

    if (baseline) {
      const tcomp::ScanTestSet b4 = tcomp::comb_initial_set(comb.tests);
      const tcomp::CombineResult b4c = tcomp::combine_tests(fsim, b4);
      std::printf("[4] baseline: initial %llu cycles, compacted %llu\n",
                  static_cast<unsigned long long>(
                      tcomp::clock_cycles(b4, nsv)),
                  static_cast<unsigned long long>(
                      tcomp::clock_cycles(b4c.tests, nsv)));
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      tcomp::write_test_set(r.compacted, out);
      std::printf("wrote %zu tests to %s\n", r.compacted.size(),
                  out_path.c_str());
    }
    flush_obs();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    flush_obs();
    return 1;
  }
}
