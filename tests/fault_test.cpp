#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "netlist/circuit.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {
namespace {

using netlist::Circuit;
using netlist::GateType;
using netlist::NodeId;
using sim::Sequence;
using sim::Vector3;

Circuit make_and_chain() {
  netlist::CircuitBuilder b("andchain");
  b.add_input("a");
  b.add_input("b");
  b.add_input("c");
  b.add_gate(GateType::And, "x", {"a", "b"});
  b.add_gate(GateType::And, "y", {"x", "c"});
  b.mark_output("y");
  return b.build();
}

TEST(FaultList, EnumeratesStemsAndFanoutBranches) {
  // a feeds both gates -> fanout 2 -> branch faults exist for each sink.
  netlist::CircuitBuilder b("fan");
  b.add_input("a");
  b.add_gate(GateType::Not, "n1", {"a"});
  b.add_gate(GateType::Not, "n2", {"a"});
  b.mark_output("n1");
  b.mark_output("n2");
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  // Stems: 3 nodes * 2 = 6.  Branches: two sinks of 'a' * 2 = 4.
  EXPECT_EQ(fl.num_faults(), 10u);
}

TEST(FaultList, NoBranchFaultsWithoutFanout) {
  const Circuit c = make_and_chain();
  const FaultList fl = FaultList::build(c);
  // 5 nodes, no stem has fanout > 1 -> stems only.
  EXPECT_EQ(fl.num_faults(), 10u);
  for (const Fault& f : fl.faults()) {
    EXPECT_EQ(f.pin, sim::kStemPin);
  }
}

TEST(FaultList, AndGateCollapsing) {
  const Circuit c = make_and_chain();
  const FaultList fl = FaultList::build(c);
  // AND input SA0 == output SA0: {a0,b0,x0} collapse, {x0(in),c0,y0}
  // collapse; the two classes share x0 so all five join one class.
  // Classes: {a/0,b/0,x/0,c/0,y/0}, {a/1},{b/1},{c/1},{x/1},{y/1}
  EXPECT_EQ(fl.num_classes(), 6u);
}

TEST(FaultList, NotGateCollapsesWithInversion) {
  netlist::CircuitBuilder b("inv");
  b.add_input("a");
  b.add_gate(GateType::Not, "n", {"a"});
  b.mark_output("n");
  const Circuit c = b.build();
  const FaultList fl = FaultList::build(c);
  // a/0 == n/1 and a/1 == n/0: 4 faults -> 2 classes.
  EXPECT_EQ(fl.num_faults(), 4u);
  EXPECT_EQ(fl.num_classes(), 2u);
}

TEST(FaultList, XorGateDoesNotCollapse) {
  netlist::CircuitBuilder b("x");
  b.add_input("a");
  b.add_input("b");
  b.add_gate(GateType::Xor, "o", {"a", "b"});
  b.mark_output("o");
  const FaultList fl = FaultList::build(b.build());
  EXPECT_EQ(fl.num_classes(), fl.num_faults());
}

TEST(FaultList, DffBoundaryNotCollapsed) {
  netlist::CircuitBuilder b("ff");
  b.add_input("a");
  b.add_gate(GateType::Dff, "q", {"d"});
  b.add_gate(GateType::Buf, "d", {"a"});
  b.mark_output("q");
  const FaultList fl = FaultList::build(b.build());
  // a and d collapse through the BUF; q does not collapse with d.
  EXPECT_EQ(fl.num_classes(), 4u);
}

TEST(FaultList, S27FaultCounts) {
  const FaultList fl = FaultList::build(gen::make_s27());
  // 17 nodes * 2 stems = 34; fanout stems: G14(2), G8(2), G11(3), G12(2)
  // contribute 2+2+3+2 = 9 sinks * 2 = 18 branch faults.
  EXPECT_EQ(fl.num_faults(), 52u);
  // Collapsed count: hand-derived equivalences leave 32 classes.
  EXPECT_EQ(fl.num_classes(), 32u);
  // Every class id maps back to itself through its representative.
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    bool found = false;
    for (std::size_t i = 0; i < fl.num_faults(); ++i) {
      if (fl.faults()[i] == rep) {
        EXPECT_EQ(fl.class_of(i), id);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(FaultName, FormatsStemAndBranch) {
  const Circuit c = gen::make_s27();
  const Fault stem{c.find("G17"), sim::kStemPin, false};
  EXPECT_EQ(fault_name(stem, c), "G17/SA0");
  const Fault branch{c.find("G8"), 1, true};
  EXPECT_EQ(fault_name(branch, c), "G8.in1/SA1");
}

TEST(FaultSim, DetectsStuckOutputOnS27) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Sequence seq;
  seq.frames.push_back(sim::vector3_from_string("1111"));
  // Fault-free PO (G17) is 1; G17/SA0 must be caught immediately.
  const FaultSet det = fsim.detect_no_scan(seq);
  bool g17_sa0_detected = false;
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    if (rep.node == c.find("G17") && rep.pin == sim::kStemPin &&
        !rep.value) {
      g17_sa0_detected = det.test(id);
    }
  }
  EXPECT_TRUE(g17_sa0_detected);
  EXPECT_GT(det.count(), 0u);
  EXPECT_LT(det.count(), fl.num_classes());
}

TEST(FaultSim, ScanObservationDetectsMoreThanPoObservation) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(11);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 6, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const FaultSet po_only = fsim.detect_no_scan(seq);
  const FaultSet with_scan = fsim.detect_scan_test(si, seq);
  // Scan adds controllability and observability; on s27 it must not lose
  // detections and generally gains some.
  EXPECT_GE(with_scan.count(), po_only.count());
}

TEST(FaultSim, TargetRestrictionLimitsWork) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(12);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  const FaultSet all = fsim.detect_no_scan(seq);

  FaultSet targets(fl.num_classes());
  targets.set(0);
  targets.set(fl.num_classes() - 1);
  const FaultSet restricted = fsim.detect_no_scan(seq, &targets);
  EXPECT_TRUE(targets.contains(restricted));
  EXPECT_EQ(restricted.test(0), all.test(0));
  EXPECT_EQ(restricted.test(fl.num_classes() - 1),
            all.test(fl.num_classes() - 1));
}

TEST(FaultSim, DetectsAllAgreesWithDetectSet) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(13);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  const FaultSet det = fsim.detect_scan_test(si, seq);
  EXPECT_TRUE(fsim.detects_all(si, seq, det));
  // Requiring one extra undetected fault must fail.
  FaultSet more = det;
  bool extended = false;
  for (FaultClassId id = 0; id < fl.num_classes() && !extended; ++id) {
    if (!more.test(id)) {
      more.set(id);
      extended = true;
    }
  }
  if (extended) {
    EXPECT_FALSE(fsim.detects_all(si, seq, more));
  }
}

TEST(FaultSim, DetectionTimesPrefixSemantics) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(14);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  FaultSet all(fl.num_classes());
  all.fill();
  const auto times = fsim.detection_times(si, seq, all);

  // The record's prefix coverage must equal an explicit simulation of the
  // truncated test, for every prefix length.
  for (std::size_t u = 0; u < seq.length(); ++u) {
    const Sequence prefix = seq.subsequence(0, u);
    const FaultSet det = fsim.detect_scan_test(si, prefix);
    for (std::size_t k = 0; k < times.targets.size(); ++k) {
      EXPECT_EQ(times.detected_by_prefix(k, u), det.test(times.targets[k]))
          << "fault " << fault_name(fl.representative(times.targets[k]), c)
          << " prefix " << u;
    }
  }
}

// Property: detection-time records reproduce explicit prefix simulation
// on generated circuits (s27 version above; this sweeps random ones).
class DetectionTimesProperty
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DetectionTimesProperty, PrefixSemanticsOnRandomCircuits) {
  gen::GenParams p;
  p.name = "dt";
  p.seed = GetParam() * 41 + 9;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 5;
  p.num_gates = 40;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(GetParam() * 13 + 1);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 9, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);
  FaultSet all = fsim.all_faults();
  const auto times = fsim.detection_times(si, seq, all);
  // Check a few prefixes exhaustively.
  for (const std::size_t u : {2u, 5u, 8u}) {
    const FaultSet det = fsim.detect_scan_test(si, seq.subsequence(0, u));
    for (std::size_t k = 0; k < times.targets.size(); ++k) {
      EXPECT_EQ(times.detected_by_prefix(k, u), det.test(times.targets[k]))
          << "prefix " << u;
    }
  }
  // prefix_detection agrees with detect_scan_test on the full test.
  const auto light = fsim.prefix_detection(si, seq, all);
  EXPECT_EQ(light.detected, fsim.detect_scan_test(si, seq));
  // first_po times agree between the light and full records.
  for (std::size_t k = 0; k < times.targets.size(); ++k) {
    EXPECT_EQ(light.first_po[k], times.first_po[k]) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DetectionTimesProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

// Regression: PrefixDetection::all_detected() must check the targets
// actually simulated.  `detected` is indexed per *class* while `targets`
// is the simulated subset, so a count()-vs-size comparison breaks as
// soon as `detected` carries class bits outside that subset.
TEST(FaultSim, PrefixAllDetectedChecksSimulatedTargets) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  util::Rng rng(23);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  // Non-trivial targets filter: exactly the classes the test covers.
  const FaultSet covered = fsim.detect_scan_test(si, seq);
  ASSERT_FALSE(covered.none());
  auto result = fsim.prefix_detection(si, seq, covered);
  EXPECT_TRUE(result.all_detected());

  // Merging unrelated per-class coverage into `detected` (count now
  // exceeds targets.size()) must not flip the answer.
  FaultSet extra(fl.num_classes());
  for (std::size_t i = 0; i < extra.size(); ++i) {
    if (!covered.test(i)) extra.set(i);
  }
  result.detected |= extra;
  EXPECT_TRUE(result.all_detected());

  // A targets filter containing an uncovered class must report false
  // even though other classes push the detected count past size().
  if (!extra.none()) {
    FaultSet with_missing = covered;
    with_missing.set(extra.find_first());
    const auto miss = fsim.prefix_detection(si, seq, with_missing);
    EXPECT_FALSE(miss.all_detected());
  }

  // Hand-built record pinning the per-class semantics.
  FaultSimulator::PrefixDetection pd;
  pd.targets = {0, 1};
  pd.first_po = {-1, -1};
  pd.detected = FaultSet(fl.num_classes());
  pd.detected.set(0);
  pd.detected.set(2);  // stray non-target class bits
  pd.detected.set(3);
  EXPECT_FALSE(pd.all_detected());  // target 1 missing
  pd.detected.set(1);
  EXPECT_TRUE(pd.all_detected());   // count() == 4 > targets.size() == 2
}

// A PI vector is indexed in primary_inputs() order by every simulator;
// a short one would be read out of bounds.  Every query checks each
// frame's width at its boundary, before it simulates anything.
TEST(FaultSim, RejectsShortPiVector) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const FaultSet all = fsim.all_faults();
  const Vector3 si(c.num_flip_flops(), sim::V3::Zero);
  Sequence seq;
  seq.frames.push_back(Vector3(c.num_inputs(), sim::V3::One));
  seq.frames.push_back(Vector3(c.num_inputs() - 1, sim::V3::One));
  EXPECT_THROW((void)fsim.detect_no_scan(seq), std::invalid_argument);
  EXPECT_THROW((void)fsim.detect_scan_test(si, seq), std::invalid_argument);
  EXPECT_THROW((void)fsim.detects_all(si, seq, all), std::invalid_argument);
  EXPECT_THROW((void)fsim.detection_times(si, seq, all),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.prefix_detection(si, seq, all),
               std::invalid_argument);
  const FaultSimulator::BatchTest batch[] = {{&si, &seq}, {&si, &seq}};
  EXPECT_THROW((void)fsim.detect_batch(batch), std::invalid_argument);
  EXPECT_THROW((void)fsim.times_batch(batch, all), std::invalid_argument);
  FaultSimulator::Session session(fsim, all);
  EXPECT_THROW((void)session.step(seq.frames[1]), std::invalid_argument);
}

// With default settings, a stuck-at detect_scan_test over >= 2 fault
// groups packs the groups into the lanes of the wide fault-parallel
// pass, and returns exactly what the 64-bit one-lane passes return.
TEST(FaultSim, DefaultDetectScanTestTakesWidePass) {
  gen::GenParams p;
  p.name = "widefp";
  p.seed = 17;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 12;
  p.num_gates = 220;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  ASSERT_GE(num_groups(fl.num_classes()), 2u);
  util::Rng rng(23);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 24, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  FaultSimulator fsim(c, fl);
  const std::uint64_t before = obs::value(obs::Counter::WideFpPasses);
  const FaultSet wide = fsim.detect_scan_test(si, seq);
  EXPECT_GT(obs::value(obs::Counter::WideFpPasses), before);

  FaultSimulator w64(c, fl);
  w64.set_lane_width(sim::LaneWidth::W64);
  EXPECT_EQ(wide, w64.detect_scan_test(si, seq));
}

TEST(Session, LatchedEffectsCountsBinaryDifferences) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  EXPECT_EQ(session.latched_effects(), 0u);  // all-X start: no effects
  util::Rng rng(4);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 6, rng);
  std::size_t effects = 0;
  for (const auto& v : seq.frames) {
    (void)session.step(v);
    effects = std::max(effects, session.latched_effects());
  }
  EXPECT_GT(effects, 0u);  // some fault effect reaches the state
}

// Property: the parallel-fault simulator agrees with the independent
// serial single-fault golden model on random circuits.
class ParallelVsSerial : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelVsSerial, DetectionAgrees) {
  gen::GenParams p;
  p.name = "pv";
  p.seed = GetParam() * 31 + 5;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 5;
  p.num_gates = 40;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);

  util::Rng rng(GetParam() * 101 + 7);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  const FaultSet no_scan = fsim.detect_no_scan(seq);
  const FaultSet scan = fsim.detect_scan_test(si, seq);
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const Fault& rep = fl.representative(id);
    EXPECT_EQ(no_scan.test(id),
              test::serial_detects(c, rep, nullptr, seq, false))
        << "no-scan " << fault_name(rep, c);
    EXPECT_EQ(scan.test(id), test::serial_detects(c, rep, &si, seq, true))
        << "scan " << fault_name(rep, c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelVsSerial,
                         ::testing::Range<std::uint64_t>(1, 13));

// Property: all members of a collapsed class behave identically.
class CollapseSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CollapseSoundness, ClassMembersIndistinguishable) {
  gen::GenParams p;
  p.name = "cs";
  p.seed = GetParam() * 77 + 3;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 4;
  p.num_gates = 30;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  util::Rng rng(GetParam() * 997 + 1);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  const Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  // Every fault must be detected iff its representative is detected.
  for (std::size_t i = 0; i < fl.num_faults(); ++i) {
    const Fault& f = fl.faults()[i];
    const Fault& rep = fl.representative(fl.class_of(i));
    EXPECT_EQ(test::serial_detects(c, f, &si, seq, true),
              test::serial_detects(c, rep, &si, seq, true))
        << fault_name(f, c) << " vs " << fault_name(rep, c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CollapseSoundness,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace scanc::fault
