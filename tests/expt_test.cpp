#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "expt/options.hpp"
#include "expt/runner.hpp"
#include "expt/tables.hpp"

namespace scanc::expt {
namespace {

CircuitRun sample_run() {
  CircuitRun r;
  r.name = "s298";
  r.flip_flops = 14;
  r.comb_tests = 24;
  r.faults = 308;
  r.detectable = 305;
  r.atpg.det_t0 = 265;
  r.atpg.det_scan = 279;
  r.atpg.det_final = 305;
  r.atpg.len_t0 = 117;
  r.atpg.len_scan = 68;
  r.atpg.added = 10;
  r.atpg.cyc_init = 246;
  r.atpg.cyc_comp = 218;
  r.atpg.atspeed_ave = 8.67;
  r.atpg.atspeed_min = 1;
  r.atpg.atspeed_max = 68;
  r.random = r.atpg;
  r.random.len_t0 = 1000;
  r.cyc_dyn = 376;
  r.cyc_4_init = 374;
  r.cyc_4_comp = 318;
  r.atspeed_ave_4 = 1.2;
  r.atspeed_min_4 = 1;
  r.atspeed_max_4 = 2;
  r.seconds = 1.5;
  return r;
}

TEST(RunnerCache, SerializationRoundTrips) {
  const CircuitRun r = sample_run();
  const std::string text = serialize_run(r);
  const auto back = deserialize_run(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, r.name);
  EXPECT_EQ(back->flip_flops, r.flip_flops);
  EXPECT_EQ(back->faults, r.faults);
  EXPECT_EQ(back->atpg.det_scan, r.atpg.det_scan);
  EXPECT_EQ(back->atpg.cyc_comp, r.atpg.cyc_comp);
  EXPECT_DOUBLE_EQ(back->atspeed_ave_4, r.atspeed_ave_4);
  EXPECT_EQ(back->random.len_t0, r.random.len_t0);
  EXPECT_EQ(back->cyc_dyn, r.cyc_dyn);
}

TEST(RunnerCache, RejectsCorruptAndStaleInput) {
  EXPECT_FALSE(deserialize_run("").has_value());
  EXPECT_FALSE(deserialize_run("version=0\nname=x\n").has_value());
  std::string text = serialize_run(sample_run());
  text = text.substr(0, text.size() / 2);  // truncated
  EXPECT_FALSE(deserialize_run(text).has_value());
}

TEST(Options, ParsesFlags) {
  const char* argv[] = {"bin",          "--circuits=s298,b01", "--full",
                        "--seed=42",    "--fresh",             "--cache=/tmp/x",
                        "--no-dynamic", "--verbose"};
  const BenchConfig cfg = parse_bench_args(8, argv);
  ASSERT_EQ(cfg.circuits.size(), 2u);
  EXPECT_EQ(cfg.circuits[0], "s298");
  EXPECT_EQ(cfg.circuits[1], "b01");
  EXPECT_TRUE(cfg.include_large);
  EXPECT_TRUE(cfg.runner.force_fresh);
  EXPECT_TRUE(cfg.runner.verbose);
  EXPECT_FALSE(cfg.runner.run_dynamic_baseline);
  EXPECT_EQ(cfg.runner.seed, 42u);
  EXPECT_EQ(cfg.runner.cache_path, "/tmp/x");
}

TEST(Options, ParsesTimeBudget) {
  const char* argv[] = {"bin", "--time-budget=3600"};
  const BenchConfig cfg = parse_bench_args(2, argv);
  ASSERT_TRUE(cfg.runner.cancel.valid());
  EXPECT_FALSE(cfg.runner.cancel.stop_requested());
  EXPECT_FALSE(cfg.runner.cancel.deadline().never());
  const double remaining = cfg.runner.cancel.deadline().remaining_seconds();
  EXPECT_GT(remaining, 3500.0);
  EXPECT_LE(remaining, 3600.0);

  const char* no_budget[] = {"bin"};
  EXPECT_FALSE(parse_bench_args(1, no_budget).runner.cancel.valid());

  const char* bad[] = {"bin", "--time-budget=soon"};
  EXPECT_THROW((void)parse_bench_args(2, bad), std::invalid_argument);
  const char* negative[] = {"bin", "--time-budget=-5"};
  EXPECT_THROW((void)parse_bench_args(2, negative), std::invalid_argument);
}

TEST(Options, ParsesAtpgBackend) {
  const char* sat[] = {"bin", "--atpg=sat"};
  EXPECT_EQ(parse_bench_args(2, sat).runner.atpg, atpg::AtpgBackend::Sat);
  const char* aut[] = {"bin", "--atpg=auto"};
  EXPECT_EQ(parse_bench_args(2, aut).runner.atpg, atpg::AtpgBackend::Auto);
  const char* podem[] = {"bin", "--atpg=podem"};
  EXPECT_EQ(parse_bench_args(2, podem).runner.atpg,
            atpg::AtpgBackend::Podem);
  const char* none[] = {"bin"};
  EXPECT_EQ(parse_bench_args(1, none).runner.atpg,
            atpg::AtpgBackend::Podem);
  const char* bad[] = {"bin", "--atpg=minisat"};
  EXPECT_THROW((void)parse_bench_args(2, bad), std::invalid_argument);
}

TEST(Options, AtpgBackendGetsOwnCacheEntry) {
  RunnerOptions opt;
  const std::string base = cache_entry_path(opt, "s298");
  opt.atpg = atpg::AtpgBackend::Sat;
  const std::string sat = cache_entry_path(opt, "s298");
  opt.atpg = atpg::AtpgBackend::Auto;
  const std::string aut = cache_entry_path(opt, "s298");
  EXPECT_NE(base, sat);
  EXPECT_NE(base, aut);
  EXPECT_NE(sat, aut);
  EXPECT_EQ(sat, base + ".sat");
  EXPECT_EQ(aut, base + ".auto");
}

// Numeric flags are strict: a malformed value throws instead of
// silently becoming 0 (seed 0, or "all cores" for --threads).
TEST(Options, RejectsMalformedNumbers) {
  for (const char* flag : {"--seed=", "--threads=", "--chains="}) {
    for (const char* value : {"", "x", "-1", "+1", "12x", " 1", "1 ",
                              "99999999999999999999999"}) {
      const std::string arg = std::string(flag) + value;
      const char* argv[] = {"bin", arg.c_str()};
      EXPECT_THROW((void)parse_bench_args(2, argv), std::invalid_argument)
          << arg;
    }
  }
  const char* ok[] = {"bin", "--seed=18446744073709551615", "--threads=0",
                      "--chains=4"};
  const BenchConfig cfg = parse_bench_args(4, ok);
  EXPECT_EQ(cfg.runner.seed, 18446744073709551615ULL);
  EXPECT_EQ(cfg.runner.num_threads, 0u);
  EXPECT_EQ(cfg.runner.num_chains, 4u);
  for (const char* value : {"", "1e999", "inf", "nan", "5s"}) {
    const std::string arg = std::string("--time-budget=") + value;
    const char* argv[] = {"bin", arg.c_str()};
    EXPECT_THROW((void)parse_bench_args(2, argv), std::invalid_argument)
        << arg;
  }
}

TEST(Options, RejectsMalformedNumericEnvVars) {
  ::setenv("SCANC_SEED", "x", 1);
  const char* argv[] = {"bin"};
  EXPECT_THROW((void)parse_bench_args(1, argv), std::invalid_argument);
  ::setenv("SCANC_SEED", "7", 1);
  EXPECT_EQ(parse_bench_args(1, argv).runner.seed, 7u);
  ::unsetenv("SCANC_SEED");
  ::setenv("SCANC_THREADS", "", 1);
  EXPECT_THROW((void)parse_bench_args(1, argv), std::invalid_argument);
  ::unsetenv("SCANC_THREADS");
}

TEST(Options, RejectsUnknownFlagAndCircuit) {
  const char* bad_flag[] = {"bin", "--bogus"};
  EXPECT_THROW((void)parse_bench_args(2, bad_flag), std::invalid_argument);
  const char* bad_circuit[] = {"bin", "--circuits=nosuch"};
  EXPECT_THROW((void)parse_bench_args(2, bad_circuit),
               std::invalid_argument);
}

TEST(Tables, AllPrintersProduceRows) {
  const std::vector<CircuitRun> runs = {sample_run()};
  for (const auto printer : {print_table1, print_table2, print_table3,
                             print_table4, print_table5}) {
    std::ostringstream out;
    printer(runs, out);
    EXPECT_NE(out.str().find("s298"), std::string::npos);
    EXPECT_GT(out.str().size(), 80u);
  }
  std::ostringstream md;
  write_markdown_report(runs, md);
  EXPECT_NE(md.str().find("| s298 |"), std::string::npos);
}

TEST(Tables, MarksInterruptedRows) {
  CircuitRun partial = sample_run();
  partial.completed = false;
  partial.stopped_at = "pipeline-atpg/phase3";
  for (const auto printer : {print_table1, print_table2, print_table3,
                             print_table4, print_table5}) {
    std::ostringstream out;
    printer({partial}, out);
    EXPECT_NE(out.str().find("s298!"), std::string::npos);
    EXPECT_NE(out.str().find("interrupted at pipeline-atpg/phase3"),
              std::string::npos);
  }
  // Completed rows stay unmarked.
  std::ostringstream clean;
  print_table1({sample_run()}, clean);
  EXPECT_EQ(clean.str().find("s298!"), std::string::npos);
  EXPECT_EQ(clean.str().find("interrupted"), std::string::npos);
}

TEST(Tables, Table3TotalsExcludeLarge) {
  CircuitRun small = sample_run();
  CircuitRun large = sample_run();
  large.name = "s35932";
  large.cyc_4_init = 1000000;  // would dominate the total if included
  std::ostringstream out;
  print_table3({small, large}, out);
  const std::string text = out.str();
  const std::size_t total_pos = text.find("total*");
  ASSERT_NE(total_pos, std::string::npos);
  EXPECT_EQ(text.find("1000374", total_pos), std::string::npos)
      << "total must not include s35932";
}

TEST(Runner, EndToEndWithCacheOnTinyCircuit) {
  // Use the smallest suite entry end-to-end, writing a real cache file.
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());
  const std::string cache =
      (std::filesystem::temp_directory_path() / "scanc_test_cache").string();
  RunnerOptions opt;
  opt.cache_path = cache;
  opt.force_fresh = true;
  opt.random_t0_length = 200;  // keep the test quick
  const CircuitRun fresh = run_circuit(*entry, opt);
  EXPECT_EQ(fresh.name, "b02");
  EXPECT_GT(fresh.faults, 0u);
  EXPECT_GE(fresh.atpg.det_final, fresh.atpg.det_scan);
  EXPECT_GE(fresh.atpg.det_scan, fresh.atpg.det_t0);
  EXPECT_LE(fresh.atpg.cyc_comp, fresh.atpg.cyc_init);

  // Second call must hit the cache and reproduce the result.
  opt.force_fresh = false;
  const CircuitRun cached = run_circuit(*entry, opt);
  EXPECT_EQ(serialize_run(cached), serialize_run(fresh));
  std::filesystem::remove(cache + ".b02.seed1");
}

// The acceptance gate for the SAT backend: under --atpg=auto every
// fault the structural engine aborts on is resolved by SAT, so the
// measurement ends with zero unresolved classes and an exact
// detectable count.
TEST(Runner, AutoBackendLeavesNoAbortedFaults) {
  for (const char* name : {"b02", "s298"}) {
    const auto entry = gen::find_suite_entry(name);
    ASSERT_TRUE(entry.has_value());
    RunnerOptions opt;
    opt.cache_path.clear();  // in-memory: no cache, no journal
    opt.random_t0_length = 100;
    opt.run_dynamic_baseline = false;
    opt.atpg = atpg::AtpgBackend::Auto;
    const CircuitRun run = run_circuit(*entry, opt);
    EXPECT_TRUE(run.completed);
    EXPECT_EQ(run.aborted, 0u) << name;
    EXPECT_EQ(run.detectable, run.faults - run.proven_untestable) << name;
    // Everything the pipeline finally covers is within the detectable
    // universe.
    EXPECT_LE(run.atpg.det_final, run.detectable) << name;
  }
}

// The progress-note contract: RunnerOptions::progress receives these
// literal strings, in this order, once per stage or phase entry.
// perfbench's harness turns each note into a span boundary and
// perfbench/benchlib.py (STAGE_NOTES, PHASE_NOTES, STEP_NOTES) classifies
// them by literal string, so a changed, dropped or extra note silently
// breaks its per-layer attribution.
std::vector<std::string> progress_notes(const char* circuit,
                                        fault::FaultModelKind model,
                                        atpg::AtpgBackend backend) {
  const auto entry = gen::find_suite_entry(circuit);
  EXPECT_TRUE(entry.has_value());
  RunnerOptions opt;
  opt.cache_path.clear();  // in-memory: no cache, no journal
  opt.random_t0_length = 100;
  opt.fault_model = model;
  opt.atpg = backend;
  std::vector<std::string> notes;
  opt.progress = [&notes](const char* note) { notes.emplace_back(note); };
  const CircuitRun run = run_circuit(*entry, opt);
  EXPECT_TRUE(run.completed);
  return notes;
}

/// The notes of one pipeline run whose Phase 1+2 iteration ran `rounds`
/// rounds, each with Phase 2.
std::vector<std::string> pipeline_notes(const char* stage,
                                        std::size_t rounds) {
  std::vector<std::string> notes = {stage, "phases 1+2 (iterated)"};
  for (std::size_t r = 0; r < rounds; ++r) {
    notes.emplace_back("phase 1 (scan-in / scan-out selection)");
    notes.emplace_back("phase 2 (vector omission)");
  }
  notes.emplace_back("phase 3 (top-off)");
  notes.emplace_back("phase 4 (combining)");
  return notes;
}

/// setup, the greedy-T0 stage, both pipelines, both baselines.
std::vector<std::string> flow_notes(std::vector<std::string> setup,
                                    std::size_t greedy_rounds,
                                    std::size_t random_rounds) {
  std::vector<std::string> notes = std::move(setup);
  notes.emplace_back("generating T0 (greedy)");
  for (std::string& n : pipeline_notes("pipeline (greedy T0)", greedy_rounds)) {
    notes.push_back(std::move(n));
  }
  for (std::string& n : pipeline_notes("pipeline (random T0)", random_rounds)) {
    notes.push_back(std::move(n));
  }
  notes.emplace_back("baseline [4]");
  notes.emplace_back("baseline [2,3]-style dynamic");
  return notes;
}

TEST(Runner, ProgressNotesStuckAt) {
  const std::vector<std::string> want = flow_notes(
      {"building circuit", "generating combinational test set C"}, 3, 3);
  EXPECT_EQ(progress_notes("b01", fault::FaultModelKind::StuckAt,
                           atpg::AtpgBackend::Podem),
            want);
}

TEST(Runner, ProgressNotesTransitionAuto) {
  const std::vector<std::string> want =
      flow_notes({"building circuit", "generating combinational test set C",
                  "resolving transition-fault universe (SAT)"},
                 2, 2);
  EXPECT_EQ(progress_notes("b01", fault::FaultModelKind::Transition,
                           atpg::AtpgBackend::Auto),
            want);
}

}  // namespace
}  // namespace scanc::expt
