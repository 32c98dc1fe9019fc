// Tests for the differential fuzzing subsystem (src/check/): workload
// determinism, oracle agreement on hand-built circuits, the seeded
// regression corpus and the targeted X-state audit cases.  The
// open-ended hunt lives in the fuzz_check binary; these tests pin fixed
// seeds so a regression fails deterministically in CI.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/differ.hpp"
#include "check/oracle_sim.hpp"
#include "check/shrink.hpp"
#include "check/workload.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "netlist/circuit.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc {
namespace {

using check::CheckConfig;
using check::Workload;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;
using sim::Sequence;
using sim::Vector3;

// Judges `det`, the simulator's detected set for the test (scan_in,
// seq) — no scan when scan_in is null — fault by fault against the
// scalar oracle.
void expect_oracle_agrees(const FaultSimulator& fsim, const FaultSet& det,
                          const Vector3* scan_in, const Sequence& seq,
                          const std::string& what) {
  const FaultList& fl = fsim.fault_list();
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    const fault::Fault& f = fl.faults()[i];
    const check::OracleResult o =
        check::oracle_run(fsim.circuit(), fsim.scan_mask(), fl.model(), f,
                          scan_in, seq, scan_in != nullptr);
    EXPECT_EQ(o.detected, det.test(fl.class_of(i)))
        << what << ": fault " << fault::fault_name(f, fsim.circuit(),
                                                   fl.model());
  }
}

constexpr sim::LaneWidth kLaneWidths[] = {sim::LaneWidth::W64,
                                          sim::LaneWidth::Auto};

const char* lanes_name(sim::LaneWidth w) {
  return w == sim::LaneWidth::W64 ? "w64" : "default";
}

// --- Workload generation ----------------------------------------------

TEST(CheckWorkload, DeterministicExpansion) {
  const Workload a = check::make_workload(12345);
  const Workload b = check::make_workload(12345);
  EXPECT_EQ(a.circuit.num_nodes(), b.circuit.num_nodes());
  EXPECT_EQ(a.scan_mask, b.scan_mask);
  EXPECT_EQ(a.targets, b.targets);
  ASSERT_EQ(a.tests.size(), b.tests.size());
  for (std::size_t i = 0; i < a.tests.size(); ++i) {
    EXPECT_EQ(a.tests[i].scan_in, b.tests[i].scan_in);
    EXPECT_EQ(a.tests[i].seq.frames, b.tests[i].seq.frames);
  }
  EXPECT_EQ(a.no_scan_seq.frames, b.no_scan_seq.frames);
}

TEST(CheckWorkload, CoversAdversarialShapes) {
  // Over 256 seeds the generator must produce every shape the fuzzer
  // promises to stress: flip-flop-free circuits, empty scan masks,
  // length-0 sequences, and all-X scan-in vectors.
  bool saw_no_ff = false, saw_empty_mask = false;
  bool saw_len0 = false, saw_all_x = false;
  for (std::uint64_t s = 0; s < 256; ++s) {
    const Workload w = check::make_workload(s * 7919 + 1);
    if (w.circuit.num_flip_flops() == 0) saw_no_ff = true;
    if (w.circuit.num_flip_flops() > 0 && w.scan_mask.count() == 0) {
      saw_empty_mask = true;
    }
    for (const tcomp::ScanTest& t : w.tests) {
      if (t.seq.length() == 0) saw_len0 = true;
      bool all_x = t.scan_in.size() > 0;
      for (std::size_t i = 0; i < t.scan_in.size(); ++i) {
        if (t.scan_in[i] != sim::V3::X) all_x = false;
      }
      if (all_x) saw_all_x = true;
    }
  }
  EXPECT_TRUE(saw_no_ff);
  EXPECT_TRUE(saw_empty_mask);
  EXPECT_TRUE(saw_len0);
  EXPECT_TRUE(saw_all_x);
}

// --- Oracle vs production kernels on a hand-built circuit -------------

// One FF fed straight from a PI (the scan path is pi -> d -> ff), with
// the FF read both by a PO gate and by its own next-state logic.
Circuit scan_path_circuit() {
  netlist::CircuitBuilder b("spath");
  b.add_input("pi");
  b.add_input("en");
  b.add_gate(GateType::Buf, "d", {"pi"});
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "po", {"q", "en"});
  b.mark_output("po");
  return b.build();
}

TEST(CheckOracle, AgreesWithFullKernelOnEveryFault) {
  const Circuit c = scan_path_circuit();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string("10"));
  seq.frames.push_back(sim::vector3_from_string("01"));
  seq.frames.push_back(sim::vector3_from_string("11"));
  const Vector3 si = sim::vector3_from_string("0");
  const FaultSet det = fsim.detect_scan_test(si, seq);
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    const fault::Fault& f = fl.faults()[i];
    const check::OracleResult o =
        check::oracle_run(c, fsim.scan_mask(), f, &si, seq, true);
    EXPECT_EQ(o.detected, det.test(fl.class_of(i)))
        << "fault " << fault::fault_name(f, c);
  }
}

TEST(CheckOracle, StemFaultOnFfIsNotCaptured) {
  // PPO convention: a stuck-at on the FF's Q stem corrupts every reader
  // but not the latch content, so it must be PO-detectable yet invisible
  // to scan-out.  q/SA1 with en=1, pi=0, scan-in 0: PO reads q=1 vs 0
  // (detected at a PO), but the captured chain content stays fault-free.
  const Circuit c = scan_path_circuit();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const netlist::NodeId q = c.find("q");
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    const fault::Fault& f = fl.faults()[i];
    if (f.node != q || f.pin != sim::kStemPin || !f.value) continue;
    Sequence seq;
    seq.frames.push_back(sim::vector3_from_string("01"));
    const Vector3 si = sim::vector3_from_string("0");
    const check::OracleResult o =
        check::oracle_run(c, fsim.scan_mask(), f, &si, seq, true);
    EXPECT_TRUE(o.detected);
    EXPECT_EQ(o.first_po, 0);
    ASSERT_EQ(o.state_diff.size(), 1u);
    EXPECT_EQ(o.state_diff[0], 0) << "stem fault must not corrupt capture";
    return;
  }
  FAIL() << "q stem SA1 not in fault list";
}

// --- Transition-delay faults: oracle vs kernels -----------------------

TEST(CheckOracleTdf, AgreesWithBothKernelsOnEveryFault) {
  // The scalar launch/capture interpreter and both packed frame-gated
  // kernels — the one-lane group pass and the wide PPSFP batch pass —
  // must agree fault-by-fault.
  const Circuit c = scan_path_circuit();
  const FaultList fl = FaultList::build(c, fault::FaultModel::transition());
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string("10"));
  seq.frames.push_back(sim::vector3_from_string("01"));
  seq.frames.push_back(sim::vector3_from_string("11"));
  seq.frames.push_back(sim::vector3_from_string("01"));
  const Vector3 si = sim::vector3_from_string("0");
  FaultSimulator fsim(c, fl);
  expect_oracle_agrees(fsim, fsim.detect_scan_test(si, seq), &si, seq,
                       "one-lane");
  const FaultSimulator::BatchTest pair[] = {{&si, &seq}, {&si, &seq}};
  const std::vector<FaultSet> batch = fsim.detect_batch(pair);
  ASSERT_EQ(batch.size(), 2u);
  for (const FaultSet& det : batch) {
    expect_oracle_agrees(fsim, det, &si, seq, "batch");
  }
}

TEST(CheckOracleTdf, LaunchCaptureSemanticsByHand) {
  // q/STR (slow-to-rise) on the FF output: scan-in q=0, pi=1 in frame 0
  // captures q=1 for frame 1 — the launch.  In that one frame the site
  // behaves as stuck-at-0, so po = q&en flips 1 -> 0 iff en=1 there.
  const Circuit c = scan_path_circuit();
  const FaultList fl = FaultList::build(c, fault::FaultModel::transition());
  const netlist::NodeId q = c.find("q");
  const fault::Fault* str = nullptr;
  for (const fault::Fault& f : fl.faults()) {
    if (f.node == q && !f.value) str = &f;  // stale 0 = slow-to-rise
  }
  ASSERT_NE(str, nullptr) << "q/STR not enumerated";
  FaultSimulator fsim(c, fl);
  Sequence launch_observed;  // en=1 at the capture frame
  launch_observed.frames.push_back(sim::vector3_from_string("10"));
  launch_observed.frames.push_back(sim::vector3_from_string("01"));
  const Vector3 si = sim::vector3_from_string("0");
  const check::OracleResult o = check::oracle_run(
      c, fsim.scan_mask(), fl.model(), *str, &si, launch_observed, true);
  EXPECT_TRUE(o.detected);
  EXPECT_EQ(o.first_po, 1);

  // Same launch with en=0 at the capture frame: active but unobserved at
  // the PO, and the FF stem corruption is never captured (PPO rule), so
  // scan-out sees nothing either.
  Sequence launch_masked;
  launch_masked.frames.push_back(sim::vector3_from_string("10"));
  launch_masked.frames.push_back(sim::vector3_from_string("00"));
  const check::OracleResult m = check::oracle_run(
      c, fsim.scan_mask(), fl.model(), *str, &si, launch_masked, true);
  EXPECT_FALSE(m.detected);

  // No transition at the site (pi held 0): never active.
  Sequence quiet;
  quiet.frames.push_back(sim::vector3_from_string("01"));
  quiet.frames.push_back(sim::vector3_from_string("01"));
  const check::OracleResult n = check::oracle_run(
      c, fsim.scan_mask(), fl.model(), *str, &si, quiet, true);
  EXPECT_FALSE(n.detected);
}

// --- Seeded regression corpus -----------------------------------------

TEST(CheckCorpus, FixedSeedsRunClean) {
  // The ctest-side slice of the fuzzer: a fixed corpus that re-runs the
  // whole comparison matrix on every build.  Any divergence is a real
  // kernel/compaction bug — fuzz_check --seed=<seed> --iters=1 repros it.
  CheckConfig cfg;
  cfg.threads = 4;
  std::uint64_t state = 0xC0FFEE;
  for (int i = 0; i < 250; ++i) {
    const std::uint64_t seed = util::splitmix64(state);
    const check::CaseReport r = check_case(check::make_workload(seed), cfg);
    for (const std::string& d : r.divergences) {
      ADD_FAILURE() << "seed " << seed << ": " << d;
    }
    if (r.failed()) break;
  }
}

TEST(CheckCorpus, FixedSeedsRunCleanTransition) {
  // The same matrix under the transition model: every configuration
  // (64-bit/wide lanes, fresh/shared simulator, serial/parallel) plus
  // the scalar TDF oracle must agree on the frame-gated semantics.
  CheckConfig cfg;
  cfg.threads = 4;
  std::uint64_t state = 0xBEEFED;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t seed = util::splitmix64(state);
    const check::CaseReport r = check_case(
        check::make_workload(seed, fault::FaultModel::transition()), cfg);
    for (const std::string& d : r.divergences) {
      ADD_FAILURE() << "seed " << seed << ": " << d;
    }
    if (r.failed()) break;
  }
}

// --- Targeted X-state audit cases -------------------------------------

// An all-X scan-in starts every machine from an unknown state, and a
// fault injected on the scan path (the FF's D-side logic) must still
// reach the scan-out observation exactly as the oracle says.  These
// cases pin that shape and a partial-scan unscanned flip-flop, on 64-bit
// and default lanes.  Each shape is tiled kTiles times side by side so
// the fault list spans several groups: on default lanes the scan query
// then runs the wide fault-parallel pass, not the one-lane one.
constexpr std::size_t kTiles = 24;

std::string tiled(const char* s) {
  std::string out;
  for (std::size_t k = 0; k < kTiles; ++k) out += s;
  return out;
}

// Runs detect_scan_test on `lanes`, checking that default lanes take the
// wide fault-parallel pass.
FaultSet scan_detect(FaultSimulator& fsim, sim::LaneWidth lanes,
                     const Vector3& scan_in, const Sequence& seq) {
  const std::uint64_t before = obs::value(obs::Counter::WideFpPasses);
  FaultSet det = fsim.detect_scan_test(scan_in, seq);
  if (lanes == sim::LaneWidth::Auto) {
    EXPECT_GT(obs::value(obs::Counter::WideFpPasses), before);
  }
  return det;
}

TEST(CheckXStateAudit, AllXScanInWithScanPathFault) {
  // kTiles copies of scan_path_circuit().
  netlist::CircuitBuilder b("spath_tiled");
  for (std::size_t k = 0; k < kTiles; ++k) {
    const std::string t = std::to_string(k);
    b.add_input("pi" + t);
    b.add_input("en" + t);
    b.add_gate(GateType::Buf, "d" + t, {"pi" + t});
    b.add_gate(GateType::Dff, "q" + t, {"d" + t});
    b.add_gate(GateType::And, "po" + t, {"q" + t, "en" + t});
    b.mark_output("po" + t);
  }
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  ASSERT_GE(fault::num_groups(fl.num_classes()), 2u);
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string(tiled("1x")));
  seq.frames.push_back(sim::vector3_from_string(tiled("0x")));
  const Vector3 all_x = sim::vector3_from_string(tiled("x"));
  for (const sim::LaneWidth lanes : kLaneWidths) {
    FaultSimulator fsim(c, fl);
    fsim.set_lane_width(lanes);
    expect_oracle_agrees(fsim, scan_detect(fsim, lanes, all_x, seq), &all_x,
                         seq, std::string("scan ") + lanes_name(lanes));
    // detect_no_scan starts all-X too, PO-only.
    expect_oracle_agrees(fsim, fsim.detect_no_scan(seq), nullptr, seq,
                         std::string("no-scan ") + lanes_name(lanes));
  }
}

TEST(CheckXStateAudit, PartialScanUnscannedFf) {
  // Two FFs per tile, only one scanned: the unscanned FF's position is
  // forced to X on every load, so no machine may claim a binary
  // fault-free reference there.
  netlist::CircuitBuilder b("pscan_tiled");
  for (std::size_t k = 0; k < kTiles; ++k) {
    const std::string t = std::to_string(k);
    b.add_input("a" + t);
    b.add_gate(GateType::Dff, "q0_" + t, {"d0_" + t});
    b.add_gate(GateType::Dff, "q1_" + t, {"d1_" + t});
    b.add_gate(GateType::Not, "d0_" + t, {"q1_" + t});
    b.add_gate(GateType::Xor, "d1_" + t, {"a" + t, "q0_" + t});
    b.add_gate(GateType::Or, "po" + t, {"q0_" + t, "q1_" + t});
    b.mark_output("po" + t);
  }
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  ASSERT_GE(fault::num_groups(fl.num_classes()), 2u);
  // Scan every q0 (scan_in position i is flip_flops()[i]); leave q1 out.
  const std::span<const netlist::NodeId> ffs = c.flip_flops();
  util::Bitset mask(ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (c.node(ffs[i]).name.starts_with("q0_")) mask.set(i);
  }
  ASSERT_EQ(mask.count(), kTiles);
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string(tiled("1")));
  seq.frames.push_back(sim::vector3_from_string(tiled("0")));
  seq.frames.push_back(sim::vector3_from_string(tiled("1")));
  // scan_in spans *all* flip-flops; the unscanned q1 positions must be
  // forced to X regardless of what the caller wrote there.
  for (const char* si_str : {"0x", "1x", "xx", "01", "10"}) {
    const Vector3 si = sim::vector3_from_string(tiled(si_str));
    for (const sim::LaneWidth lanes : kLaneWidths) {
      FaultSimulator fsim(c, fl, mask);
      fsim.set_lane_width(lanes);
      expect_oracle_agrees(fsim, scan_detect(fsim, lanes, si, seq), &si, seq,
                           std::string("scan-in ") + si_str + " " +
                               lanes_name(lanes));
    }
  }
}

// --- Per-case watchdog -------------------------------------------------

TEST(CheckWatchdog, ExpiredBudgetCutsCaseAsTimeoutNotDivergence) {
  // A watchdog that fires immediately must cut the case at the first
  // comparison boundary: the report says timed_out, and the cut itself
  // contributes no divergence (a slow case is not a wrong case).
  CheckConfig cfg;
  cfg.threads = 2;
  cfg.max_case_seconds = 1e-9;
  const check::CaseReport r = check_case(check::make_workload(12345), cfg);
  EXPECT_TRUE(r.timed_out);
  EXPECT_TRUE(r.divergences.empty());
  EXPECT_FALSE(r.failed());
}

TEST(CheckWatchdog, GenerousBudgetRunsTheFullMatrix) {
  // With a budget the case cannot exhaust, the watchdog must be
  // invisible: same comparison count as a run with no watchdog at all.
  CheckConfig plain;
  plain.threads = 2;
  const check::CaseReport base = check_case(check::make_workload(777), plain);
  CheckConfig guarded = plain;
  guarded.max_case_seconds = 3600.0;
  const check::CaseReport r = check_case(check::make_workload(777), guarded);
  EXPECT_FALSE(r.timed_out);
  EXPECT_EQ(r.comparisons, base.comparisons);
  EXPECT_EQ(r.divergences, base.divergences);
}

// --- Shrinker output ---------------------------------------------------

TEST(CheckShrink, ReproIsStandalone) {
  const Workload w = check::make_workload(4242);
  check::CaseReport report;
  report.divergences.push_back("synthetic divergence for formatting");
  std::ostringstream out;
  check::write_repro(out, w, report);
  const std::string text = out.str();
  EXPECT_NE(text.find("seed=4242"), std::string::npos);
  EXPECT_NE(text.find("synthetic divergence"), std::string::npos);
  EXPECT_NE(text.find("INPUT("), std::string::npos);
  EXPECT_NE(text.find("OUTPUT("), std::string::npos);
}

}  // namespace
}  // namespace scanc
