// SAT ATPG backend: solver unit tests, encoding agreement with PODEM,
// untestability-proof soundness against the simulation kernels, and
// two-frame transition-delay generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>

#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "atpg/sat_solver.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "netlist/circuit.hpp"
#include "util/cancel.hpp"
#include "util/rng.hpp"

namespace scanc::atpg {
namespace {

using fault::Fault;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;
using sim::V3;
using sim::Vector3;

// ---------------------------------------------------------------------
// CDCL solver units.

TEST(SatSolver, SolvesSimpleSatInstance) {
  SatSolver s;
  const SatVar a = s.new_var();
  const SatVar b = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a), mk_lit(b)}));
  ASSERT_TRUE(s.add_clause({mk_lit(a, true), mk_lit(b)}));
  ASSERT_EQ(s.solve(), SatResult::Sat);
  EXPECT_TRUE(s.model_value(b));
}

TEST(SatSolver, DetectsRootUnsat) {
  SatSolver s;
  const SatVar a = s.new_var();
  ASSERT_TRUE(s.add_clause({mk_lit(a)}));
  EXPECT_FALSE(s.add_clause({mk_lit(a, true)}));
  EXPECT_TRUE(s.root_unsat());
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(SatSolver, UnsatByResolution) {
  // (a|b)(a|!b)(!a|b)(!a|!b) is unsatisfiable but not by unit
  // propagation alone: the solver must search/learn.
  SatSolver s;
  const SatLit a = mk_lit(s.new_var());
  const SatLit b = mk_lit(s.new_var());
  ASSERT_TRUE(s.add_clause({a, b}));
  ASSERT_TRUE(s.add_clause({a, lit_neg(b)}));
  ASSERT_TRUE(s.add_clause({lit_neg(a), b}));
  ASSERT_TRUE(s.add_clause({lit_neg(a), lit_neg(b)}));
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

// Pigeonhole: n+1 pigeons in n holes.  Small but requires real search.
void add_pigeonhole(SatSolver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<SatLit>> at(
      static_cast<std::size_t>(pigeons));
  for (int p = 0; p < pigeons; ++p) {
    for (int h = 0; h < holes; ++h) {
      at[static_cast<std::size_t>(p)].push_back(mk_lit(s.new_var()));
    }
    ASSERT_TRUE(s.add_clause(at[static_cast<std::size_t>(p)]));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        ASSERT_TRUE(s.add_clause(
            {lit_neg(at[static_cast<std::size_t>(p)]
                       [static_cast<std::size_t>(h)]),
             lit_neg(at[static_cast<std::size_t>(q)]
                       [static_cast<std::size_t>(h)])}));
      }
    }
  }
}

TEST(SatSolver, ProvesPigeonholeUnsat) {
  SatSolver s;
  add_pigeonhole(s, 5);
  EXPECT_EQ(s.solve(), SatResult::Unsat);
  EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(SatSolver, ConflictLimitYieldsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 7);
  SatLimits limits;
  limits.max_conflicts = 2;
  EXPECT_EQ(s.solve(limits), SatResult::Unknown);
  // The instance stays solvable afterwards with a real budget.
  EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(SatSolver, CancelledTokenYieldsUnknown) {
  SatSolver s;
  add_pigeonhole(s, 7);
  SatLimits limits;
  limits.cancel = util::CancelToken::make(util::Deadline::after(0.0));
  EXPECT_EQ(s.solve(limits), SatResult::Unknown);
}

TEST(SatSolver, AssumptionsAreTransient) {
  SatSolver s;
  const SatLit a = mk_lit(s.new_var());
  const SatLit b = mk_lit(s.new_var());
  ASSERT_TRUE(s.add_clause({lit_neg(a), b}));
  ASSERT_TRUE(s.add_clause({lit_neg(b), lit_neg(a)}));  // a -> b -> !a
  EXPECT_EQ(s.solve({a}), SatResult::Unsat);
  // Unsat under the assumption only: the instance itself is fine.
  EXPECT_EQ(s.solve(), SatResult::Sat);
  EXPECT_EQ(s.solve({lit_neg(a)}), SatResult::Sat);
  EXPECT_FALSE(s.model_value(lit_var(a)));
}

TEST(SatSolver, SelectorRetirementKeepsSolverUsable) {
  // The incremental ATPG contract: guarded clauses die by unit ¬s.
  SatSolver s;
  const SatLit x = mk_lit(s.new_var());
  const SatLit sel = mk_lit(s.new_var());
  // Guarded contradiction: sel -> x and sel -> !x.
  ASSERT_TRUE(s.add_clause({lit_neg(sel), x}));
  ASSERT_TRUE(s.add_clause({lit_neg(sel), lit_neg(x)}));
  EXPECT_EQ(s.solve({sel}), SatResult::Unsat);
  ASSERT_TRUE(s.add_clause({lit_neg(sel)}));  // retire
  const SatLit sel2 = mk_lit(s.new_var());
  ASSERT_TRUE(s.add_clause({lit_neg(sel2), x}));
  EXPECT_EQ(s.solve({sel2}), SatResult::Sat);
  EXPECT_TRUE(s.model_value(lit_var(x)));
}

// ---------------------------------------------------------------------
// Stuck-at encoding on hand-built circuits.

TEST(SatBackendStuck, FindsTestForSimpleAndGate) {
  netlist::CircuitBuilder b("and2");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::And, "o", {"a", "b"});
  b.mark_output("o");
  const Circuit c = b.build();
  SatBackend sat(c);
  const PodemResult r =
      sat.generate(Fault{c.find("o"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
  EXPECT_EQ(r.cube.inputs[1], V3::One);
}

TEST(SatBackendStuck, ProvesRedundantFaultUntestable) {
  // o = OR(a, NOT(a)) is constant 1: o stuck-at-1 is untestable.
  netlist::CircuitBuilder b("taut");
  b.add_input("a");
  b.add_gate(GateType::Not, "na", {"a"});
  b.add_gate(GateType::Or, "o", {"a", "na"});
  b.mark_output("o");
  const Circuit c = b.build();
  SatBackend sat(c);
  EXPECT_EQ(sat.generate(Fault{c.find("o"), sim::kStemPin, true}).status,
            PodemStatus::Untestable);
  EXPECT_EQ(sat.generate(Fault{c.find("o"), sim::kStemPin, false}).status,
            PodemStatus::Detected);
  EXPECT_EQ(sat.stats().proofs, 1u);
  EXPECT_EQ(sat.stats().tests, 1u);
}

TEST(SatBackendStuck, UsesStateInputsForFaultsBehindFlipFlops) {
  netlist::CircuitBuilder b("ffex");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "x", {"a", "q"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("x");
  const Circuit c = b.build();
  SatBackend sat(c);
  const PodemResult r =
      sat.generate(Fault{c.find("x"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.state[0], V3::One);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
}

TEST(SatBackendStuck, ObservesFaultsAtScanCaptureOnly) {
  // The only observation point is the flip-flop's D capture: a fault on
  // the input is invisible at POs (there are none) but scan-observable.
  netlist::CircuitBuilder b("cap");
  b.add_input("a");
  b.add_gate(GateType::Not, "d", {"a"});
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::Buf, "dead", {"q"});  // keep q read
  b.mark_output("dead");
  const Circuit c = b.build();
  SatBackend sat(c);
  const PodemResult r =
      sat.generate(Fault{c.find("a"), sim::kStemPin, true});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.inputs[0], V3::Zero);
}

TEST(SatBackendStuck, FlipFlopDPinBranchFaultUsesStuckCapture) {
  // Branch fault on the FF's own D pin: detected iff the driver carries
  // the opposite value; with the driver constant at the stuck value the
  // fault is untestable.
  netlist::CircuitBuilder b("dpin");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"a"});
  b.mark_output("q");
  const Circuit c = b.build();
  SatBackend sat(c);
  const PodemResult r = sat.generate(Fault{c.find("q"), 0, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.inputs[0], V3::One);

  netlist::CircuitBuilder b2("dpin0");
  b2.add_input("a");
  b2.add_gate(GateType::Const0, "z", {});
  b2.add_gate(GateType::Dff, "q", {"z"});
  b2.add_gate(GateType::And, "o", {"a", "q"});
  b2.mark_output("o");
  const Circuit c2 = b2.build();
  SatBackend sat2(c2);
  EXPECT_EQ(sat2.generate(Fault{c2.find("q"), 0, false}).status,
            PodemStatus::Untestable);
  EXPECT_EQ(sat2.generate(Fault{c2.find("q"), 0, true}).status,
            PodemStatus::Detected);
}

TEST(SatBackendStuck, UnscannedFlipFlopBlocksExcitation) {
  // Partial scan: with the single flip-flop unscanned its value is X,
  // the AND can never be excited, and its D line is unobservable.
  netlist::CircuitBuilder b("pscan");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "x", {"a", "q"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("x");
  const Circuit c = b.build();
  SatBackendOptions opt;
  opt.scan_mask = util::Bitset(1);  // 1 FF, bit clear = unscanned
  SatBackend sat(c, std::move(opt));
  EXPECT_EQ(sat.generate(Fault{c.find("x"), sim::kStemPin, false}).status,
            PodemStatus::Untestable);
  // a stuck-at-0 still reaches x... no: x = a AND X is 0 or X, never a
  // binary difference.  The only testable faults go through nothing —
  // verify against PODEM rather than hand-deriving.
  Podem podem(c, PodemOptions{.backtrack_limit = 100000,
                              .scan_mask = util::Bitset(1)});
  const FaultList fl = FaultList::build(c);
  for (std::size_t i = 0; i < fl.num_classes(); ++i) {
    const Fault f = fl.representative(static_cast<fault::FaultClassId>(i));
    const PodemStatus ps = podem.generate(f).status;
    const PodemStatus ss = sat.generate(f).status;
    if (ps == PodemStatus::Aborted || ss == PodemStatus::Aborted) continue;
    EXPECT_EQ(ps, ss) << "fault class " << i;
  }
}

std::vector<std::string_view> views(const std::vector<std::string>& v) {
  return {v.begin(), v.end()};
}

// Applies a SAT cube (fully specified under full scan) as a length-one
// scan test and checks that it detects `f`.
bool sat_cube_detects(const Circuit& c, const Fault& f, const TestCube& cube) {
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  sim::Sequence seq;
  seq.frames.push_back(cube.inputs);
  const FaultSet det = fsim.detect_scan_test(cube.state, seq);
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    if (fl.faults()[i] == f) return det.test(fl.class_of(i));
  }
  ADD_FAILURE() << "fault not in list";
  return false;
}

// A wide justification: o stuck-at-1 needs all ten AND inputs at 1.
TEST(SatBackendStuck, DetectsWideAndJustification) {
  netlist::CircuitBuilder b("wide_and");
  std::vector<std::string> ins;
  for (int i = 0; i < 10; ++i) {
    ins.push_back("a" + std::to_string(i));
    b.add_input(ins.back());
  }
  b.add_gate(GateType::And, "o", views(ins));
  b.mark_output("o");
  const Circuit c = b.build();
  const Fault f{c.find("o"), sim::kStemPin, true};
  SatBackend sat(c);
  const PodemResult r = sat.generate(f);
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_TRUE(sat_cube_detects(c, f, r.cube));
}

// A wide propagation: a's error crosses an XOR with ten side inputs.
TEST(SatBackendStuck, DetectsWideXorPropagation) {
  netlist::CircuitBuilder b("wide_xor");
  b.add_input("a");
  std::vector<std::string> ins = {"a"};
  for (int i = 0; i < 10; ++i) {
    ins.push_back("s" + std::to_string(i));
    b.add_input(ins.back());
  }
  b.add_gate(GateType::Xor, "x", views(ins));
  b.mark_output("x");
  const Circuit c = b.build();
  const Fault f{c.find("a"), sim::kStemPin, false};
  SatBackend sat(c);
  const PodemResult r = sat.generate(f);
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_TRUE(sat_cube_detects(c, f, r.cube));
}

// ---------------------------------------------------------------------
// Agreement sweep on generated circuits: SAT vs PODEM verdicts, SAT
// tests confirmed by the fault simulator, SAT proofs never contradicted
// by random simulation.

void agreement_sweep(std::uint64_t seed, util::Bitset scan_mask) {
  gen::GenParams params;
  params.name = "satsweep";
  params.num_inputs = 6;
  params.num_outputs = 4;
  params.num_flip_flops = 6;
  params.num_gates = 80;
  params.seed = seed;
  const Circuit c = gen::generate_circuit(params);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim = scan_mask.empty()
                            ? FaultSimulator(c, fl)
                            : FaultSimulator(c, fl, scan_mask);

  PodemOptions popt;
  popt.backtrack_limit = 200000;
  popt.scan_mask = scan_mask;
  Podem podem(c, popt);
  SatBackendOptions sopt;
  sopt.scan_mask = scan_mask;
  SatBackend sat(c, std::move(sopt));

  util::Rng rng(seed * 77 + 1);
  std::size_t checked = 0;
  for (std::size_t i = 0; i < fl.num_classes(); ++i) {
    const Fault f = fl.representative(static_cast<fault::FaultClassId>(i));
    const PodemResult sr = sat.generate(f);
    ASSERT_NE(sr.status, PodemStatus::Aborted)
        << "SAT aborted on class " << i << " seed " << seed;
    const PodemResult pr = podem.generate(f);
    if (pr.status != PodemStatus::Aborted) {
      EXPECT_EQ(pr.status, sr.status)
          << "engines disagree on class " << i << " seed " << seed;
    }
    if (sr.status == PodemStatus::Detected) {
      // The SAT cube, applied as a length-one scan test, must detect
      // the fault under the conservative kernels.
      Vector3 state = sr.cube.state;
      Vector3 inputs = sr.cube.inputs;
      sim::randomize_x(state, rng);
      // Unscanned state bits must stay X in the applied test.
      for (std::size_t j = 0; j < state.size(); ++j) {
        if (!scan_mask.empty() && !scan_mask.test(j)) state[j] = V3::X;
      }
      sim::randomize_x(inputs, rng);
      sim::Sequence seq;
      seq.frames.push_back(inputs);
      const FaultSet det = fsim.detect_scan_test(state, seq);
      EXPECT_TRUE(det.test(i))
          << "SAT test misses its own fault, class " << i << " seed "
          << seed;
    } else {
      // Proof soundness: no random test may detect a proven-untestable
      // fault.
      for (int t = 0; t < 16; ++t) {
        Vector3 state(c.num_flip_flops(), V3::X);
        for (std::size_t j = 0; j < state.size(); ++j) {
          if (scan_mask.empty() || scan_mask.test(j)) {
            state[j] = sim::v3_from_bool(rng.coin());
          }
        }
        sim::Sequence seq;
        seq.frames.push_back(sim::random_vector(c.num_inputs(), rng));
        const FaultSet det = fsim.detect_scan_test(state, seq);
        ASSERT_FALSE(det.test(i))
            << "random test detects SAT-proven-untestable class " << i
            << " seed " << seed;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(SatBackendStuck, AgreesWithPodemOnGeneratedCircuits) {
  agreement_sweep(11, {});
  agreement_sweep(12, {});
}

TEST(SatBackendStuck, AgreesWithPodemUnderPartialScan) {
  util::Bitset mask(6);
  mask.set(0);
  mask.set(2);
  mask.set(3);  // 3 of 6 scanned
  agreement_sweep(13, mask);
}

TEST(SatBackendStuck, AgreesWithPodemOnS27) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  Podem podem(c, PodemOptions{.backtrack_limit = 1000000});
  SatBackend sat(c);
  for (std::size_t i = 0; i < fl.num_classes(); ++i) {
    const Fault f = fl.representative(static_cast<fault::FaultClassId>(i));
    const PodemResult pr = podem.generate(f);
    const PodemResult sr = sat.generate(f);
    ASSERT_NE(sr.status, PodemStatus::Aborted);
    if (pr.status != PodemStatus::Aborted) {
      EXPECT_EQ(pr.status, sr.status) << "class " << i;
    }
  }
}

// ---------------------------------------------------------------------
// Transition-delay (two-frame) encoding.

TEST(SatBackendTransition, HandCraftedLaunchCapture) {
  // o = BUF(a): slow-to-rise needs a 0 -> 1 pair on 'a'.
  netlist::CircuitBuilder b("buf");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"a"});
  b.add_gate(GateType::Buf, "o", {"a"});
  b.mark_output("o");
  const Circuit c = b.build();
  SatBackend sat(c);
  const TransitionTest str =
      sat.generate_transition(Fault{c.find("a"), sim::kStemPin, false});
  ASSERT_EQ(str.status, PodemStatus::Detected);
  ASSERT_EQ(str.seq.frames.size(), 2u);
  EXPECT_EQ(str.seq.frames[0][0], V3::Zero);  // launch: stale 0
  EXPECT_EQ(str.seq.frames[1][0], V3::One);   // capture: transition to 1
}

TEST(SatBackendTransition, MaskedLaunchIsUntestable) {
  // The stem is AND-gated by a constant 0 on the only path out: no
  // transition can be observed.
  netlist::CircuitBuilder b("mask");
  b.add_input("a");
  b.add_gate(GateType::Const0, "z", {});
  b.add_gate(GateType::And, "o", {"a", "z"});
  b.mark_output("o");
  const Circuit c = b.build();
  SatBackend sat(c);
  EXPECT_EQ(sat.generate_transition(Fault{c.find("a"), sim::kStemPin,
                                          false})
                .status,
            PodemStatus::Untestable);
}

TEST(SatBackendTransition, TestsConfirmedByTransitionKernels) {
  gen::GenParams params;
  params.name = "tdfsweep";
  params.num_inputs = 5;
  params.num_outputs = 3;
  params.num_flip_flops = 5;
  params.num_gates = 60;
  params.seed = 21;
  const Circuit c = gen::generate_circuit(params);
  const FaultList fl =
      FaultList::build(c, fault::FaultModel::transition());
  FaultSimulator fsim(c, fl);
  SatBackend sat(c);
  util::Rng rng(99);
  std::size_t detected = 0;
  std::size_t untestable = 0;
  for (std::size_t i = 0; i < fl.num_classes(); ++i) {
    const Fault f = fl.representative(static_cast<fault::FaultClassId>(i));
    const TransitionTest r = sat.generate_transition(f);
    ASSERT_NE(r.status, PodemStatus::Aborted) << "class " << i;
    if (r.status == PodemStatus::Detected) {
      ++detected;
      Vector3 state = r.state;
      sim::randomize_x(state, rng);
      const FaultSet det = fsim.detect_scan_test(state, r.seq);
      EXPECT_TRUE(det.test(i))
          << "SAT transition test misses its fault, class " << i;
    } else {
      ++untestable;
      for (int t = 0; t < 8; ++t) {
        sim::Sequence seq;
        seq.frames.push_back(sim::random_vector(c.num_inputs(), rng));
        seq.frames.push_back(sim::random_vector(c.num_inputs(), rng));
        const FaultSet det = fsim.detect_scan_test(
            sim::random_vector(c.num_flip_flops(), rng), seq);
        ASSERT_FALSE(det.test(i))
            << "random launch pair detects proven-untestable class " << i;
      }
    }
  }
  EXPECT_GT(detected, 0u);
  // A generated circuit of this size typically has a few untestable
  // transitions; the sweep is still meaningful if it does not.
  (void)untestable;
}

TEST(SatBackendTransition, SolverRebuildPreservesResults) {
  const Circuit c = gen::make_s27();
  const FaultList fl =
      FaultList::build(c, fault::FaultModel::transition());
  SatBackendOptions opt;
  opt.rebuild_vars = 1;  // force a rebuild before every fault
  SatBackend sat(c, std::move(opt));
  SatBackend fresh(c);
  for (std::size_t i = 0; i < fl.num_classes(); ++i) {
    const Fault f = fl.representative(static_cast<fault::FaultClassId>(i));
    EXPECT_EQ(sat.generate_transition(f).status,
              fresh.generate_transition(f).status)
        << "class " << i;
  }
  EXPECT_GT(sat.stats().rebuilds, 0u);
}

}  // namespace
}  // namespace scanc::atpg
