// Crash-safety, cancellation, and resume validation (docs/robustness.md).
//
// The core property under test: a run interrupted at an arbitrary point
// — by a deadline, an explicit cancel, or a SIGKILL'd process — and then
// resumed produces measurement numbers bit-identical to an uninterrupted
// run, and a damaged cache or journal degrades to recomputation, never a
// crash.
//
// The SIGKILL harness forks; run_circuit is invoked with the default
// num_threads = 1, so the forking process is single-threaded and the
// child may safely do real work without exec.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "atpg/comb_tset.hpp"
#include "expt/runner.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/embedded.hpp"
#include "gen/suite.hpp"
#include "sim/seq_sim.hpp"
#include "tcomp/iterate.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/random_seq.hpp"
#include "util/cancel.hpp"
#include "util/store.hpp"
#include "util/event_bus.hpp"
#include "util/telemetry.hpp"
#include "util/trace_writer.hpp"

namespace scanc {
namespace {

namespace fs = std::filesystem;

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_raw(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A fresh scratch directory per test (removed on destruction).
struct ScratchDir {
  explicit ScratchDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("scanc_resilience_" + tag + "_" + std::to_string(getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

// ---------------------------------------------------------------------
// util::store — the checksummed atomic blob store.

TEST(Store, Crc32MatchesKnownVectors) {
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);  // IEEE check value
}

TEST(Store, RoundTripsArbitraryBytes) {
  ScratchDir dir("store_rt");
  const std::string path = dir.path + "/blob";
  std::string payload = "line1\nline2\n";
  payload.push_back('\0');
  payload += "\xff\x01 binary tail";
  ASSERT_TRUE(util::store_write(path, payload));
  const auto back = util::store_read(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
}

TEST(Store, MissingFileIsAMiss) {
  EXPECT_FALSE(util::store_read("/nonexistent/dir/blob").has_value());
}

TEST(Store, WriteIntoMissingDirectoryFailsCleanly) {
  EXPECT_FALSE(util::store_write("/nonexistent/dir/blob", "x"));
}

TEST(Store, EveryTruncationIsAMiss) {
  // Simulates a torn write / torn copy at every possible byte count.
  ScratchDir dir("store_trunc");
  const std::string path = dir.path + "/blob";
  ASSERT_TRUE(util::store_write(path, "the payload\nwith lines\n"));
  const std::string full = read_raw(path);
  ASSERT_FALSE(full.empty());
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_raw(path, std::string_view(full).substr(0, len));
    EXPECT_FALSE(util::store_read(path).has_value()) << "prefix " << len;
  }
  write_raw(path, full);
  EXPECT_TRUE(util::store_read(path).has_value());
}

TEST(Store, Everysingle_bit_corruption_is_a_miss) {
  ScratchDir dir("store_flip");
  const std::string path = dir.path + "/blob";
  ASSERT_TRUE(util::store_write(path, "payload under test 0123456789"));
  const std::string full = read_raw(path);
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x08);
    write_raw(path, bad);
    EXPECT_FALSE(util::store_read(path).has_value()) << "byte " << i;
  }
}

TEST(Store, ForeignFileIsAMiss) {
  ScratchDir dir("store_foreign");
  const std::string path = dir.path + "/blob";
  write_raw(path, "not a store file at all\n");
  EXPECT_FALSE(util::store_read(path).has_value());
  write_raw(path, "scanc-store 999 00000000 1\nx");  // version skew
  EXPECT_FALSE(util::store_read(path).has_value());
}

// ---------------------------------------------------------------------
// util::cancel — tokens, deadlines, stickiness.

TEST(Cancel, InertTokenNeverStops) {
  util::CancelToken t;
  EXPECT_FALSE(t.valid());
  EXPECT_FALSE(t.stop_requested());
  t.request_stop();  // no-op, must not crash
  EXPECT_FALSE(t.stop_requested());
}

TEST(Cancel, RequestStopIsStickyAndShared) {
  const util::CancelToken a = util::CancelToken::make();
  const util::CancelToken b = a;  // same shared state
  EXPECT_FALSE(a.stop_requested());
  b.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
}

TEST(Cancel, DeadlineExpiryRaisesToken) {
  EXPECT_TRUE(util::Deadline::after(-1.0).expired());
  EXPECT_FALSE(util::Deadline().expired());
  EXPECT_GT(util::Deadline().remaining_seconds(), 1e18);

  const auto t = util::CancelToken::make(util::Deadline::after(-1.0));
  EXPECT_TRUE(t.stop_requested());
  const auto slow = util::CancelToken::make(util::Deadline::after(3600.0));
  EXPECT_FALSE(slow.stop_requested());
}

// ---------------------------------------------------------------------
// Cooperative cancellation inside the fault simulator and the pipeline.
// These tests also run under TSan in CI (Cancel* filter).

struct SimFixture {
  SimFixture()
      : circuit(gen::make_s27()),
        faults(fault::FaultList::build(circuit)),
        fsim(circuit, faults) {}
  netlist::Circuit circuit;
  fault::FaultList faults;
  fault::FaultSimulator fsim;
};

TEST(CancelSim, RaisedTokenMakesDetectsAllConservativelyFalse) {
  SimFixture fx;
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/7);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  // Uncancelled: the sequence detects some faults.
  const fault::FaultSet det = fx.fsim.detect_scan_test(si, seq);
  ASSERT_GT(det.count(), 0u);
  ASSERT_TRUE(fx.fsim.detects_all(si, seq, det));
  // A raised token forces the conservative answer even for a check that
  // would pass — a coverage check the cut interrupts must reject.
  const auto token = util::CancelToken::make();
  token.request_stop();
  fx.fsim.set_cancel(token);
  EXPECT_FALSE(fx.fsim.detects_all(si, seq, det));
  // Queries return promptly with partial (here: empty) results.
  EXPECT_EQ(fx.fsim.detect_scan_test(si, seq).count(), 0u);
}

TEST(CancelSim, MidQueryCancellationFromAnotherThreadIsClean) {
  // Raise the token from a second thread while queries run on a
  // multi-threaded simulator; TSan checks the synchronisation.  The
  // exact cut point is timing-dependent; the assertions below hold for
  // every cut.
  SimFixture fx;
  fx.fsim.set_num_threads(2);
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 512, /*seed=*/11);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  const fault::FaultSet full = fx.fsim.detect_scan_test(si, seq);

  for (int round = 0; round < 8; ++round) {
    const auto token = util::CancelToken::make();
    fx.fsim.set_cancel(token);
    std::thread raiser([&token] { token.request_stop(); });
    const fault::FaultSet det = fx.fsim.detect_scan_test(si, seq);
    raiser.join();
    // Partial result: a subset of the uncancelled detection set.
    fault::FaultSet extra = det;
    extra -= full;
    EXPECT_TRUE(extra.none()) << "round " << round;
  }
}

TEST(CancelSim, RaisedTokenKeepsConsistentFaultsConservative) {
  // consistent_faults under cancellation must err toward "consistent":
  // a fault may stay in the candidate set spuriously, but must never be
  // excluded without its mismatch being observed.
  SimFixture fx;
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/7);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  const sim::Trace good =
      sim::simulate_fault_free(fx.circuit, &si, seq);
  const fault::FaultSet targets = fx.fsim.all_faults();
  const fault::FaultSet base = fx.fsim.consistent_faults(
      si, seq, good.po_frames, good.states.back(), targets);
  // Observing the fault-free response leaves some faults inconsistent
  // (the detected ones), so the conservative direction is observable.
  ASSERT_LT(base.count(), targets.count());

  // A pre-raised token (same state as an expired deadline, see
  // DeadlineExpiryRaisesToken) skips every group: all targets remain
  // consistent — a strict superset of the uncancelled answer.
  const auto token = util::CancelToken::make();
  token.request_stop();
  fx.fsim.set_cancel(token);
  const fault::FaultSet cancelled = fx.fsim.consistent_faults(
      si, seq, good.po_frames, good.states.back(), targets);
  EXPECT_EQ(cancelled.count(), targets.count());
}

TEST(CancelSim, MidQueryConsistencyCancellationIsConservative) {
  // Raise the token from a second thread mid-query: whatever frame the
  // per-frame poll in run_consistency cuts at, the result only loses
  // mismatches, so it is a superset of the uncancelled consistent set.
  SimFixture fx;
  fx.fsim.set_num_threads(2);
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 512, /*seed=*/11);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  const sim::Trace good =
      sim::simulate_fault_free(fx.circuit, &si, seq);
  const fault::FaultSet targets = fx.fsim.all_faults();
  const fault::FaultSet base = fx.fsim.consistent_faults(
      si, seq, good.po_frames, good.states.back(), targets);

  for (int round = 0; round < 8; ++round) {
    const auto token = util::CancelToken::make();
    fx.fsim.set_cancel(token);
    std::thread raiser([&token] { token.request_stop(); });
    const fault::FaultSet cut = fx.fsim.consistent_faults(
        si, seq, good.po_frames, good.states.back(), targets);
    raiser.join();
    fault::FaultSet lost = base;
    lost -= cut;
    EXPECT_TRUE(lost.none()) << "round " << round;
  }
}

// The wide fault-parallel plan (stuck-at, wide lanes, >= 2 fault
// groups) honours the same token: pending chunks are skipped and
// in-flight passes stop at their next frame.  s27 has a single group, so
// these cases run on s298.

struct WideSimFixture {
  explicit WideSimFixture(sim::LaneWidth width)
      : circuit(gen::build_suite_circuit(*gen::find_suite_entry("s298"))),
        faults(fault::FaultList::build(circuit)),
        fsim(circuit, faults) {
    fsim.set_lane_width(width);
  }
  netlist::Circuit circuit;
  fault::FaultList faults;
  fault::FaultSimulator fsim;
};

void check_wide_raised_token(sim::LaneWidth width) {
  WideSimFixture fx(width);
  ASSERT_GE(fault::num_groups(fx.fsim.num_classes()), 2u);
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/7);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
  const fault::FaultSet det = fx.fsim.detect_scan_test(si, seq);
  ASSERT_GT(obs::value(obs::Counter::WideFpPasses), passes);  // wide plan
  ASSERT_GT(det.count(), 0u);
  ASSERT_TRUE(fx.fsim.detects_all(si, seq, det));
  const auto token = util::CancelToken::make();
  token.request_stop();
  fx.fsim.set_cancel(token);
  EXPECT_FALSE(fx.fsim.detects_all(si, seq, det));
  EXPECT_EQ(fx.fsim.detect_scan_test(si, seq).count(), 0u);
  fx.fsim.set_cancel({});
}

void check_wide_mid_query_cancel(sim::LaneWidth width) {
  WideSimFixture fx(width);
  fx.fsim.set_num_threads(2);
  ASSERT_GE(fault::num_groups(fx.fsim.num_classes()), 2u);
  const sim::Sequence seq =
      tgen::random_test_sequence(fx.circuit, 512, /*seed=*/11);
  const sim::Vector3 si(fx.circuit.num_flip_flops());
  const fault::FaultSet full = fx.fsim.detect_scan_test(si, seq);
  for (int round = 0; round < 8; ++round) {
    const auto token = util::CancelToken::make();
    fx.fsim.set_cancel(token);
    std::thread raiser([&token] { token.request_stop(); });
    const fault::FaultSet det = fx.fsim.detect_scan_test(si, seq);
    raiser.join();
    fault::FaultSet extra = det;
    extra -= full;
    EXPECT_TRUE(extra.none()) << "round " << round;
  }
  fx.fsim.set_cancel({});
}

TEST(CancelSimWide, RaisedTokenMakesDetectsAllFalseW256) {
  check_wide_raised_token(sim::LaneWidth::W256);
}

TEST(CancelSimWide, RaisedTokenMakesDetectsAllFalseW512) {
  check_wide_raised_token(sim::LaneWidth::W512);
}

TEST(CancelSimWide, MidQueryCancellationKeepsSubsetW256) {
  check_wide_mid_query_cancel(sim::LaneWidth::W256);
}

TEST(CancelSimWide, MidQueryCancellationKeepsSubsetW512) {
  check_wide_mid_query_cancel(sim::LaneWidth::W512);
}

TEST(CancelSim, PipelineStopsAtIterateWithValidEmptyResult) {
  SimFixture fx;
  atpg::CombTestSetOptions copt;
  copt.seed = 1;
  const atpg::CombTestSet comb =
      atpg::generate_comb_test_set(fx.circuit, fx.faults, copt);
  const sim::Sequence t0 =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/3);

  tcomp::PipelineOptions popt;
  popt.cancel = util::CancelToken::make();
  popt.cancel.request_stop();  // cancelled before the first round
  const tcomp::PipelineResult r =
      tcomp::run_pipeline(fx.fsim, t0, comb.tests, popt);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.stopped_at, tcomp::PipelinePhase::Iterate);
  EXPECT_STREQ(tcomp::to_string(r.stopped_at), "phase1+2");
  // Best-so-far is empty but *well-formed*: sized sets, empty test set.
  EXPECT_EQ(r.compacted.size(), 0u);
  EXPECT_EQ(r.f_seq.size(), fx.fsim.num_classes());
  EXPECT_EQ(r.final_coverage.count(), 0u);
  fx.fsim.set_cancel({});  // detach before fx is destroyed
}

TEST(CancelSim, IterateKeepsBestCompleteRound) {
  // An inert-then-raised token between rounds: iterate must return the
  // best complete round, flagged stopped, and never a half-round.
  SimFixture fx;
  atpg::CombTestSetOptions copt;
  copt.seed = 1;
  const atpg::CombTestSet comb =
      atpg::generate_comb_test_set(fx.circuit, fx.faults, copt);
  const sim::Sequence t0 =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/3);

  tcomp::IterateOptions base;
  const tcomp::IterateResult full = iterate_phases(fx.fsim, t0, comb.tests,
                                                   base);
  ASSERT_TRUE(full.tau_valid);
  ASSERT_FALSE(full.stopped);

  // Cancel up front: no round may run.
  tcomp::IterateOptions opt = base;
  opt.cancel = util::CancelToken::make();
  opt.cancel.request_stop();
  const tcomp::IterateResult cut = iterate_phases(fx.fsim, t0, comb.tests,
                                                  opt);
  EXPECT_TRUE(cut.stopped);
  EXPECT_FALSE(cut.tau_valid);
  EXPECT_TRUE(cut.iterations.empty());
}

// ---------------------------------------------------------------------
// Phase events stay balanced on every exit path: a watcher (scanc-top)
// must never see a job stuck mid-phase because the pipeline left early.

/// Every phase_begin in `events` is closed by a phase_end of the same
/// phase, innermost first.
void expect_balanced_phases(const std::vector<obs::Event>& events) {
  std::vector<std::string> open;
  for (const obs::Event& e : events) {
    const std::string kind = obs::to_string(e.kind);
    if (kind == "phase_begin") {
      open.push_back(e.phase);
    } else if (kind == "phase_end") {
      ASSERT_FALSE(open.empty()) << "phase_end without a begin: " << e.phase;
      EXPECT_EQ(open.back(), e.phase) << "phases must close innermost first";
      open.pop_back();
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " phase(s) never ended, "
                            << "innermost " << open.back();
}

TEST(PhaseEvents, ThrowingQueryClosesEveryPhase) {
  SimFixture fx;
  atpg::CombTestSetOptions copt;
  copt.seed = 1;
  const atpg::CombTestSet comb =
      atpg::generate_comb_test_set(fx.circuit, fx.faults, copt);
  // Every frame is one primary input short: the first query rejects T0.
  sim::Sequence t0;
  t0.frames.assign(8, sim::Vector3(fx.circuit.num_inputs() - 1));

  obs::reset_events();
  const auto sub = obs::subscribe("", 1024);
  EXPECT_THROW((void)tcomp::run_pipeline(fx.fsim, t0, comb.tests),
               std::invalid_argument);
  std::vector<obs::Event> events;
  sub->poll(events, 0.1);
  ASSERT_FALSE(events.empty()) << "the pipeline opened phases before the throw";
  expect_balanced_phases(events);
}

TEST(PhaseEvents, CancelMidPipelineClosesEveryPhase) {
  SimFixture fx;
  atpg::CombTestSetOptions copt;
  copt.seed = 1;
  const atpg::CombTestSet comb =
      atpg::generate_comb_test_set(fx.circuit, fx.faults, copt);
  const sim::Sequence t0 =
      tgen::random_test_sequence(fx.circuit, 64, /*seed=*/3);

  tcomp::PipelineOptions popt;
  popt.cancel = util::CancelToken::make();
  // Cut the run deterministically as Phase 4 starts.
  const obs::EventJobScope scope("", [&popt](const char* note) {
    if (std::string(note) == "phase 4 (combining)") popt.cancel.request_stop();
  });
  obs::reset_events();
  const auto sub = obs::subscribe("", 1024);
  const tcomp::PipelineResult r =
      tcomp::run_pipeline(fx.fsim, t0, comb.tests, popt);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.stopped_at, tcomp::PipelinePhase::Combine);
  std::vector<obs::Event> events;
  sub->poll(events, 0.1);
  ASSERT_FALSE(events.empty());
  expect_balanced_phases(events);
}

// ---------------------------------------------------------------------
// Runner-level degradation: corrupt caches recompute, never crash.

expt::RunnerOptions tiny_runner(const std::string& cache_path) {
  expt::RunnerOptions opt;
  opt.cache_path = cache_path;
  opt.random_t0_length = 120;  // keep each full measurement quick
  return opt;
}

/// Same, but under the transition-delay fault model: the interrupt and
/// resume machinery must be model-agnostic (the journal keys on the
/// model, and frame-gated coverage bookkeeping resumes identically).
expt::RunnerOptions tiny_transition_runner(const std::string& cache_path) {
  expt::RunnerOptions opt = tiny_runner(cache_path);
  opt.fault_model = fault::FaultModelKind::Transition;
  return opt;
}

/// serialize_run minus wall-clock (`seconds` accumulates across resumed
/// attempts and legitimately differs; every measured number must not).
std::string measured_numbers(const expt::CircuitRun& run) {
  std::istringstream in(expt::serialize_run(run));
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("seconds=", 0) == 0) continue;
    out << line << "\n";
  }
  return out.str();
}

TEST(RunnerResilience, CorruptCacheDegradesToRecompute) {
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());
  ScratchDir dir("corrupt_cache");
  const expt::RunnerOptions opt = tiny_runner(dir.path + "/cache");
  const std::string path = expt::cache_entry_path(opt, "b02");

  const expt::CircuitRun baseline = expt::run_circuit(*entry, opt);
  ASSERT_TRUE(baseline.completed);
  ASSERT_TRUE(fs::exists(path));

  // Garbage file, valid envelope around garbage payload, truncation:
  // all three must silently recompute to the same numbers.
  const std::string good = read_raw(path);
  const std::string damage[] = {
      std::string("\x7f""ELF not a cache"),
      std::string(),  // empty file
      good.substr(0, good.size() / 2),
  };
  for (const std::string& bytes : damage) {
    write_raw(path, bytes);
    const expt::CircuitRun rerun = expt::run_circuit(*entry, opt);
    EXPECT_TRUE(rerun.completed);
    EXPECT_EQ(measured_numbers(rerun), measured_numbers(baseline));
  }
  // Valid envelope, hostile payload (wrong version, junk fields).
  ASSERT_TRUE(util::store_write(path, "version=999\nname=b02\nxx\n"));
  const expt::CircuitRun rerun = expt::run_circuit(*entry, opt);
  EXPECT_TRUE(rerun.completed);
  EXPECT_EQ(measured_numbers(rerun), measured_numbers(baseline));
}

TEST(RunnerResilience, CorruptJournalDegradesToRecompute) {
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());
  ScratchDir dir("corrupt_journal");
  const expt::RunnerOptions opt = tiny_runner(dir.path + "/cache");
  const std::string journal =
      expt::cache_entry_path(opt, "b02") + ".journal";

  write_raw(journal, "random bytes that are not a store envelope");
  const expt::CircuitRun run = expt::run_circuit(*entry, opt);
  EXPECT_TRUE(run.completed);
  // A completed run retires the journal.
  EXPECT_FALSE(fs::exists(journal));
}

// ---------------------------------------------------------------------
// Interrupt/resume bit-identity: deadline cuts at randomized points.

/// Runs b02 to completion under repeated deadline cuts, starting from
/// `budget_seconds` and growing it each attempt so progress is
/// guaranteed even when one budget is too small to finish a phase.
/// Returns the final (completed) run and counts partial attempts.
expt::CircuitRun run_with_deadline_cuts(const gen::SuiteEntry& entry,
                                        const expt::RunnerOptions& base,
                                        double budget_seconds,
                                        int* partial_attempts) {
  *partial_attempts = 0;
  for (int attempt = 0; attempt < 400; ++attempt) {
    expt::RunnerOptions opt = base;
    opt.cancel = util::CancelToken::make(
        util::Deadline::after(budget_seconds * (1.0 + 0.25 * attempt)));
    const expt::CircuitRun run = expt::run_circuit(entry, opt);
    if (run.completed) return run;
    EXPECT_FALSE(run.stopped_at.empty());
    ++*partial_attempts;
  }
  ADD_FAILURE() << "never completed under growing budgets";
  return {};
}

TEST(RunnerResilience, DeadlineInterruptsThenResumeIsBitIdentical) {
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());

  ScratchDir dir("deadline_resume");
  const expt::RunnerOptions base_opt = tiny_runner(dir.path + "/base");
  const expt::CircuitRun baseline = expt::run_circuit(*entry, base_opt);
  ASSERT_TRUE(baseline.completed);
  const std::string want = measured_numbers(baseline);

  // 12 starting budgets spread over orders of magnitude, so the cuts
  // land in different phases (sub-ms cuts die in setup; larger ones
  // inside each pipeline/baseline phase).
  const double budgets[] = {1e-4, 3e-4, 8e-4, 2e-3, 4e-3, 7e-3,
                            1e-2, 2e-2, 3e-2, 5e-2, 8e-2, 1.2e-1};
  int total_partials = 0;
  int point = 0;
  for (const double budget : budgets) {
    const expt::RunnerOptions opt =
        tiny_runner(dir.path + "/cut" + std::to_string(point++));
    int partials = 0;
    const expt::CircuitRun resumed =
        run_with_deadline_cuts(*entry, opt, budget, &partials);
    total_partials += partials;
    EXPECT_EQ(measured_numbers(resumed), want) << "budget " << budget;
    EXPECT_GE(resumed.seconds, 0.0);
  }
  // The harness must actually have interrupted runs, not just completed
  // them on the first try.
  EXPECT_GE(total_partials, 12);
}

TEST(RunnerResilience, PartialRunReportsPhaseAndIsNeverCached) {
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());
  ScratchDir dir("partial_report");
  expt::RunnerOptions opt = tiny_runner(dir.path + "/cache");
  opt.cancel = util::CancelToken::make();
  opt.cancel.request_stop();
  const expt::CircuitRun run = expt::run_circuit(*entry, opt);
  EXPECT_FALSE(run.completed);
  EXPECT_EQ(run.stopped_at, "setup");
  // No result cache may exist for a partial run.
  EXPECT_FALSE(fs::exists(expt::cache_entry_path(opt, "b02")));
}

TEST(RunnerResilience,
     TransitionDeadlineInterruptsThenResumeIsBitIdentical) {
  // The deadline-cut schedule under the transition-delay model: cuts
  // land in frame-gated simulation phases the stuck-at sweep never
  // exercises, and resume must still be bit-identical.
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());

  ScratchDir dir("tdf_deadline_resume");
  const expt::RunnerOptions base_opt =
      tiny_transition_runner(dir.path + "/base");
  const expt::CircuitRun baseline = expt::run_circuit(*entry, base_opt);
  ASSERT_TRUE(baseline.completed);
  const std::string want = measured_numbers(baseline);

  const double budgets[] = {1e-4, 8e-4, 4e-3, 1e-2, 3e-2, 8e-2};
  int total_partials = 0;
  int point = 0;
  for (const double budget : budgets) {
    const expt::RunnerOptions opt =
        tiny_transition_runner(dir.path + "/cut" + std::to_string(point++));
    int partials = 0;
    const expt::CircuitRun resumed =
        run_with_deadline_cuts(*entry, opt, budget, &partials);
    total_partials += partials;
    EXPECT_EQ(measured_numbers(resumed), want) << "budget " << budget;
  }
  EXPECT_GE(total_partials, 6);
}

// ---------------------------------------------------------------------
// SIGKILL injection: a child process is killed at randomized points;
// the surviving cache directory must resume to bit-identical numbers.

TEST(RunnerResilience, SigkillAtRandomPointsThenResumeIsBitIdentical) {
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());

  ScratchDir dir("kill_resume");
  const expt::RunnerOptions base_opt = tiny_runner(dir.path + "/base");
  const expt::CircuitRun baseline = expt::run_circuit(*entry, base_opt);
  ASSERT_TRUE(baseline.completed);
  const std::string want = measured_numbers(baseline);

  const expt::RunnerOptions opt = tiny_runner(dir.path + "/kill");
  // Deterministically scattered kill delays (µs).  run_circuit uses
  // num_threads = 1, so this process is single-threaded here and
  // fork-without-exec is safe.
  const useconds_t delays[] = {300,  800,  1500, 2500, 4000,
                               6000, 9000, 13000, 20000, 30000};
  for (const useconds_t delay : delays) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      // In the child: run (resuming from whatever the journal holds).
      // _exit keeps gtest/atexit machinery from running twice.
      try {
        const expt::CircuitRun run = expt::run_circuit(*entry, opt);
        _exit(run.completed ? 0 : 3);
      } catch (...) {
        _exit(2);
      }
    }
    usleep(delay);
    kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    // Either the kill landed or the child finished first; a child that
    // *crashed* (exit 2) is a bug regardless.
    if (WIFEXITED(status)) {
      EXPECT_NE(WEXITSTATUS(status), 2);
    }
  }

  // Resume in-process: must complete and match the uninterrupted run.
  const expt::CircuitRun resumed = expt::run_circuit(*entry, opt);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(measured_numbers(resumed), want);
  // Completion retires the journal.
  EXPECT_FALSE(
      fs::exists(expt::cache_entry_path(opt, "b02") + ".journal"));
}

TEST(RunnerResilience, TransitionSigkillThenResumeIsBitIdentical) {
  // The SIGKILL sweep under the transition-delay model.
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());

  ScratchDir dir("tdf_kill_resume");
  const expt::RunnerOptions base_opt =
      tiny_transition_runner(dir.path + "/base");
  const expt::CircuitRun baseline = expt::run_circuit(*entry, base_opt);
  ASSERT_TRUE(baseline.completed);
  const std::string want = measured_numbers(baseline);

  const expt::RunnerOptions opt = tiny_transition_runner(dir.path + "/kill");
  const useconds_t delays[] = {300, 1500, 4000, 9000, 20000, 40000};
  for (const useconds_t delay : delays) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      try {
        const expt::CircuitRun run = expt::run_circuit(*entry, opt);
        _exit(run.completed ? 0 : 3);
      } catch (...) {
        _exit(2);
      }
    }
    usleep(delay);
    kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    if (WIFEXITED(status)) {
      EXPECT_NE(WEXITSTATUS(status), 2);
    }
  }

  const expt::CircuitRun resumed = expt::run_circuit(*entry, opt);
  ASSERT_TRUE(resumed.completed);
  EXPECT_EQ(measured_numbers(resumed), want);
  EXPECT_FALSE(
      fs::exists(expt::cache_entry_path(opt, "b02") + ".journal"));
}

TEST(RunnerResilience, KillResumeMetricsAreCumulativeAcrossAttempts) {
  // The journal carries cumulative obs counter snapshots (obs.* lines)
  // so a resumed run's --metrics-out reports the whole job, not just the
  // final attempt.  Kill children at scattered points, then resume in
  // this process: the credited totals must cover at least the work an
  // uninterrupted run performs (every phase is either journaled complete
  // — its counters credited — or redone live; partial attempts only add).
  const auto entry = gen::find_suite_entry("b02");
  ASSERT_TRUE(entry.has_value());
  ScratchDir dir("kill_metrics");

  constexpr std::size_t kFrames =
      static_cast<std::size_t>(obs::Counter::FramesSimulated);
  constexpr std::size_t kQueries =
      static_cast<std::size_t>(obs::Counter::QueriesRun);

  // Uninterrupted baseline cost, as counter deltas (the suite shares the
  // process-global registry, so absolute values mean nothing here).
  const expt::RunnerOptions base_opt = tiny_runner(dir.path + "/base");
  const obs::CounterSnapshot s0 = obs::snapshot_counters();
  const expt::CircuitRun baseline = expt::run_circuit(*entry, base_opt);
  ASSERT_TRUE(baseline.completed);
  const obs::CounterSnapshot uninterrupted =
      obs::counter_delta(obs::snapshot_counters(), s0);
  ASSERT_GT(uninterrupted[kFrames], 0u);
  ASSERT_GT(uninterrupted[kQueries], 0u);

  const expt::RunnerOptions opt = tiny_runner(dir.path + "/kill");
  const std::string journal =
      expt::cache_entry_path(opt, "b02") + ".journal";
  std::vector<std::uint64_t> journaled_frames;
  const useconds_t delays[] = {300,  800,  1500, 2500, 4000,
                               6000, 9000, 13000, 20000, 30000};
  for (const useconds_t delay : delays) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      try {
        // Deadline backstop: even when the SIGKILL misses, the child is
        // cut and the journal survives for the in-process resume below.
        expt::RunnerOptions copt = opt;
        copt.cancel =
            util::CancelToken::make(util::Deadline::after(0.05));
        const expt::CircuitRun run = expt::run_circuit(*entry, copt);
        _exit(run.completed ? 0 : 3);
      } catch (...) {
        _exit(2);
      }
    }
    usleep(delay);
    kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    if (WIFEXITED(status)) {
      EXPECT_NE(WEXITSTATUS(status), 2);
    }
    if (const auto payload = util::store_read(journal)) {
      const std::size_t at = payload->find("obs.frames_simulated=");
      if (at != std::string::npos &&
          payload->find("obs_pid=") != std::string::npos) {
        journaled_frames.push_back(
            std::strtoull(payload->c_str() + at + 21, nullptr, 10));
      }
    }
  }
  // At least one checkpoint must have journaled counter snapshots, and
  // the carried totals are cumulative: each attempt credits the last
  // journal, so the journaled value never decreases.
  ASSERT_FALSE(journaled_frames.empty());
  for (std::size_t i = 1; i < journaled_frames.size(); ++i) {
    EXPECT_GE(journaled_frames[i], journaled_frames[i - 1]) << "attempt "
                                                            << i;
  }

  // Resume in this (different-pid) process from a clean registry: the
  // journal's totals are credited exactly once, the remaining phases run
  // live, and the cumulative numbers cover the uninterrupted cost.  A
  // child that outran the killer may have completed the run; drop the
  // result cache so the resume actually executes (the ≥ bound holds on
  // both the credited-journal and full-recompute paths).
  fs::remove(expt::cache_entry_path(opt, "b02"));
  obs::reset();
  const expt::CircuitRun resumed = expt::run_circuit(*entry, opt);
  ASSERT_TRUE(resumed.completed);
  const obs::CounterSnapshot cumulative = obs::snapshot_counters();
  EXPECT_GE(cumulative[kFrames], uninterrupted[kFrames]);
  EXPECT_GE(cumulative[kQueries], uninterrupted[kQueries]);
}

TEST(ObsShutdown, DrainEventsReachTheLogBeforeSinksSeal) {
  // The SIGTERM drain path (scanc-serve, compact_bench) publishes its
  // final phase-end events and then calls obs::shutdown_sinks(), which
  // must flush+close the event log before sealing the Chrome trace.
  // Pin the contract: every event published up to the shutdown call is
  // on disk afterwards, both sinks are sealed (the trace is a complete
  // JSON document), and a straggler publish after shutdown cannot
  // resurrect or corrupt either file.
  ScratchDir dir("obs_shutdown");
  const std::string trace_path = dir.path + "/trace.json";
  const std::string log_path = dir.path + "/events.jsonl";
  ASSERT_TRUE(obs::open_trace(trace_path));
  ASSERT_TRUE(obs::open_event_log(log_path));
  ASSERT_TRUE(obs::events_enabled());

  {
    const obs::Phase pipeline("pipeline");
    obs::publish_event(obs::EventKind::Round, "phase1+2", 17, 0);
  }
  // The drain's last gasp — this is the event a wrong ordering loses.
  obs::publish_event(obs::EventKind::JobState, "", 0, 0, "drain");

  obs::shutdown_sinks();
  EXPECT_FALSE(obs::events_enabled());
  EXPECT_FALSE(obs::tracing_enabled());

  // Every pre-shutdown event was flushed, in publish order.
  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::vector<std::string> lines;
  for (std::string line; std::getline(log, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"kind\":\"phase_begin\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"kind\":\"round\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"kind\":\"phase_end\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"note\":\"drain\""), std::string::npos);

  // The trace was sealed after the log: a complete JSON document.
  std::ifstream trace(trace_path);
  std::stringstream tbuf;
  tbuf << trace.rdbuf();
  const std::string tdoc = tbuf.str();
  ASSERT_FALSE(tdoc.empty());
  const auto last = tdoc.find_last_not_of(" \t\r\n");
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(tdoc[last], '}') << "trace must be sealed, not truncated";

  // Stragglers after shutdown are dropped, not appended.
  obs::publish_event(obs::EventKind::Counters, "exec", 0, 1);
  std::ifstream relog(log_path);
  std::size_t count = 0;
  for (std::string line; std::getline(relog, line);) ++count;
  EXPECT_EQ(count, 4u);
}

}  // namespace
}  // namespace scanc
