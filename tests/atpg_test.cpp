#include <gtest/gtest.h>

#include "atpg/comb_tset.hpp"
#include "atpg/podem.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "netlist/circuit.hpp"
#include "sim/seq_sim.hpp"
#include "util/rng.hpp"

namespace scanc::atpg {
namespace {

using fault::Fault;
using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;
using sim::V3;
using sim::Vector3;

// Class of a specific fault.
FaultClassId class_of_fault(const FaultList& fl, const Fault& f) {
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    if (fl.faults()[i] == f) return fl.class_of(i);
  }
  ADD_FAILURE() << "fault not in list";
  return 0;
}

// Applies a cube (with X randomly filled) as a length-1 scan test and
// checks whether it detects `fault`.
bool cube_detects(const Circuit& c, const FaultList& fl, const Fault& f,
                  const TestCube& cube, std::uint64_t seed) {
  util::Rng rng(seed);
  Vector3 state = cube.state;
  Vector3 inputs = cube.inputs;
  sim::randomize_x(state, rng);
  sim::randomize_x(inputs, rng);
  FaultSimulator fsim(c, fl);
  sim::Sequence seq;
  seq.frames.push_back(inputs);
  return fsim.detect_scan_test(state, seq).test(class_of_fault(fl, f));
}

// o = OR(a, NOT(a)) is constant 1: o stuck-at-1 is untestable.
Circuit tautology() {
  netlist::CircuitBuilder b("taut");
  b.add_input("a");
  b.add_gate(GateType::Not, "na", {"a"});
  b.add_gate(GateType::Or, "o", {"a", "na"});
  b.mark_output("o");
  return b.build();
}

TEST(Podem, FindsTestForSimpleAndGate) {
  netlist::CircuitBuilder b("and2");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::And, "o", {"a", "b"});
  b.mark_output("o");
  const Circuit c = b.build();
  Podem podem(c);
  // o stuck-at-0 requires a=b=1.
  const PodemResult r =
      podem.generate(Fault{c.find("o"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
  EXPECT_EQ(r.cube.inputs[1], V3::One);
}

TEST(Podem, ProvesRedundantFaultUntestable) {
  const Circuit c = tautology();
  Podem podem(c);
  const PodemResult r =
      podem.generate(Fault{c.find("o"), sim::kStemPin, true});
  EXPECT_EQ(r.status, PodemStatus::Untestable);
  // ... while o stuck-at-0 is detected by any input.
  const PodemResult r2 =
      podem.generate(Fault{c.find("o"), sim::kStemPin, false});
  EXPECT_EQ(r2.status, PodemStatus::Detected);
}

// A search cut by the backtrack limit ends Aborted, never Untestable.
// An aborted class stays in the compaction universe (later tests may
// still catch it, or the SAT backend resolves it under --atpg=auto); a
// false Untestable would silently drop a detectable fault from every
// downstream phase.
TEST(Podem, BacktrackLimitAbortsInsteadOfClaimingUntestable) {
  const Circuit c = tautology();
  Podem podem(c, PodemOptions{.backtrack_limit = 0, .scan_mask = {}});
  EXPECT_EQ(podem.generate(Fault{c.find("o"), sim::kStemPin, true}).status,
            PodemStatus::Aborted);
}

TEST(Podem, UsesStateInputsForFaultsBehindFlipFlops) {
  // The fault is only excitable through the flip-flop's value: PODEM must
  // assign the PPI (scan) input.
  netlist::CircuitBuilder b("ffex");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "x", {"a", "q"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("x");
  const Circuit c = b.build();
  Podem podem(c);
  const PodemResult r =
      podem.generate(Fault{c.find("x"), sim::kStemPin, false});
  ASSERT_EQ(r.status, PodemStatus::Detected);
  EXPECT_EQ(r.cube.state[0], V3::One);
  EXPECT_EQ(r.cube.inputs[0], V3::One);
}

TEST(Podem, ObservesThroughFlipFlopCapture) {
  // The only observation point is a D line (PPO): detection must use the
  // scan-out observation.
  netlist::CircuitBuilder b("ppo");
  b.add_input("a");
  b.add_input("en");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::And, "d", {"a", "en"});
  b.add_gate(GateType::Buf, "o", {"q"});
  b.mark_output("o");
  const Circuit c = b.build();
  Podem podem(c);
  const Fault f{c.find("d"), sim::kStemPin, false};
  const PodemResult r = podem.generate(f);
  ASSERT_EQ(r.status, PodemStatus::Detected);
  const FaultList fl = FaultList::build(c);
  EXPECT_TRUE(cube_detects(c, fl, f, r.cube, 5));
}

// Property: on random circuits, every Detected cube really detects its
// fault, and every Untestable verdict is confirmed by exhaustive
// enumeration (the circuits are small enough to brute-force).
class PodemSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PodemSoundness, CubesDetectAndUntestableConfirmed) {
  gen::GenParams p;
  p.name = "pod";
  p.seed = GetParam() * 13 + 1;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 3;  // 7 assignable bits -> brute force 128 patterns
  p.num_gates = 35;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Podem podem(c);

  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& f = fl.representative(id);
    const PodemResult r = podem.generate(f);
    if (r.status == PodemStatus::Detected) {
      EXPECT_TRUE(cube_detects(c, fl, f, r.cube, GetParam()))
          << fault_name(f, c);
    } else if (r.status == PodemStatus::Untestable) {
      // Exhaustive check: no (state, input) pattern detects it.
      const std::size_t bits = c.num_inputs() + c.num_flip_flops();
      ASSERT_LE(bits, 16u);
      bool detected = false;
      for (std::uint64_t pat = 0; pat < (1ull << bits) && !detected;
           ++pat) {
        Vector3 inputs(c.num_inputs());
        Vector3 state(c.num_flip_flops());
        for (std::size_t i = 0; i < c.num_inputs(); ++i) {
          inputs[i] = sim::v3_from_bool((pat >> i) & 1);
        }
        for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
          state[i] = sim::v3_from_bool((pat >> (c.num_inputs() + i)) & 1);
        }
        sim::Sequence seq;
        seq.frames.push_back(inputs);
        detected = fsim.detect_scan_test(state, seq).test(id);
      }
      EXPECT_FALSE(detected)
          << fault_name(f, c) << " claimed untestable but a test exists";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PodemSoundness,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(CombTestSet, CoversS27Completely) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  const CombTestSet ts = generate_comb_test_set(c, fl, {});
  EXPECT_EQ(ts.aborted, 0u);
  // All of s27's 32 collapsed faults are combinationally testable.
  EXPECT_EQ(ts.proven_untestable, 0u);
  EXPECT_EQ(ts.detected.count(), fl.num_classes());
  EXPECT_GE(ts.tests.size(), 4u);
  EXPECT_LE(ts.tests.size(), 12u);
  // Tests are fully specified (random-filled).
  for (const CombTest& t : ts.tests) {
    EXPECT_TRUE(sim::fully_specified(t.state));
    EXPECT_TRUE(sim::fully_specified(t.inputs));
  }
}

TEST(CombTestSet, ReverseCompactionPreservesCoverage) {
  gen::GenParams p;
  p.name = "rc";
  p.seed = 99;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  // 200 gates: the greedy cover alone leaves a redundant test here, so
  // the check below sees the reverse-order pass at work.
  p.num_gates = 200;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const CombTestSet compacted = generate_comb_test_set(c, fl, {});

  // Re-simulating the compacted set reproduces exactly its claimed
  // coverage, and the reverse-order pass left no redundant test: each
  // test detects a fault that no later test detects.
  FaultSimulator fsim(c, fl);
  const std::vector<FaultSet> det = detect_comb_tests(fsim, compacted.tests);
  FaultSet redetected(fl.num_classes());
  for (std::size_t j = det.size(); j-- > 0;) {
    EXPECT_FALSE(redetected.contains(det[j])) << "redundant test " << j;
    redetected |= det[j];
  }
  EXPECT_EQ(redetected, compacted.detected);
}

TEST(CombTestSet, RandomSourceCoversMostFaults) {
  gen::GenParams p;
  p.name = "rnd";
  p.seed = 7;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 100;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const CombTestSet ts = generate_random_comb_test_set(c, fl, {});
  // Random patterns typically reach the bulk of the faults quickly.
  EXPECT_GE(ts.detected.count(), fl.num_classes() * 3 / 4);
  EXPECT_EQ(ts.proven_untestable, 0u);
}

// End to end: the PODEM backend counts an aborted class in `aborted`
// only, and the Auto backend resolves every abort with a SAT verdict.
TEST(CombTestSet, AutoBackendResolvesEveryAbort) {
  const Circuit c = tautology();
  const FaultList fl = FaultList::build(c);
  const FaultClassId o_sa1 =
      class_of_fault(fl, Fault{c.find("o"), sim::kStemPin, true});
  CombTestSetOptions opt;
  opt.podem.backtrack_limit = 0;
  const CombTestSet podem = generate_comb_test_set(c, fl, opt);
  EXPECT_GE(podem.aborted, 1u);
  EXPECT_FALSE(podem.detected.test(o_sa1));
  EXPECT_FALSE(podem.untestable.test(o_sa1));

  opt.backend = AtpgBackend::Auto;
  const CombTestSet resolved = generate_comb_test_set(c, fl, opt);
  EXPECT_EQ(resolved.aborted, 0u);
  EXPECT_EQ(resolved.detected.count() + resolved.proven_untestable,
            fl.num_classes());
  EXPECT_EQ(resolved.untestable.count(), resolved.proven_untestable);
  EXPECT_TRUE(resolved.untestable.test(o_sa1));
}

TEST(CombTestSet, AtpgCoverageAtLeastRandomCoverage) {
  gen::GenParams p;
  p.name = "cmp";
  p.seed = 21;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 90;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const CombTestSet atpg = generate_comb_test_set(c, fl, {});
  const CombTestSet rnd = generate_random_comb_test_set(c, fl, {});
  EXPECT_GE(atpg.detected.count(), rnd.detected.count());
}

}  // namespace
}  // namespace scanc::atpg
