#include <gtest/gtest.h>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/frame_common.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "sim/simd.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"

namespace scanc::tgen {
namespace {

using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;

TEST(RandomSeq, HasRequestedShapeAndIsDeterministic) {
  const Circuit c = gen::make_s27();
  const sim::Sequence a = random_test_sequence(c, 50, 3);
  EXPECT_EQ(a.length(), 50u);
  for (const auto& f : a.frames) {
    EXPECT_EQ(f.size(), c.num_inputs());
    EXPECT_TRUE(sim::fully_specified(f));
  }
  const sim::Sequence b = random_test_sequence(c, 50, 3);
  EXPECT_EQ(a, b);
  const sim::Sequence d = random_test_sequence(c, 50, 4);
  EXPECT_NE(a, d);
}

TEST(Session, StepMatchesBatchSimulation) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const sim::Sequence seq = random_test_sequence(c, 20, 17);

  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  for (const auto& v : seq.frames) (void)session.step(v);

  const FaultSet batch = fsim.detect_no_scan(seq);
  EXPECT_EQ(session.detected(), batch);
}

TEST(Session, SnapshotRestoreRewindsExactly) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const sim::Sequence seq = random_test_sequence(c, 16, 23);

  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  for (int i = 0; i < 8; ++i) (void)session.step(seq.frames[i]);
  const auto snap = session.snapshot();
  const FaultSet mid = session.detected();

  // Take a detour, rewind, replay: results must be identical.
  for (int i = 8; i < 16; ++i) (void)session.step(seq.frames[i]);
  const FaultSet end1 = session.detected();
  session.restore(snap);
  EXPECT_EQ(session.detected(), mid);
  for (int i = 8; i < 16; ++i) (void)session.step(seq.frames[i]);
  EXPECT_EQ(session.detected(), end1);
}

TEST(GreedyTgen, DetectsMoreThanRandomOfSameLength) {
  gen::GenParams p;
  p.name = "gt";
  p.seed = 5;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 10;
  p.num_gates = 120;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  GreedyTgenOptions opt;
  opt.seed = 11;
  opt.max_length = 400;
  const GreedyTgenResult r = generate_test_sequence(c, fl, opt);
  EXPECT_GT(r.sequence.length(), 0u);
  EXPECT_LE(r.sequence.length(), opt.max_length + opt.segment_max);

  FaultSimulator fsim(c, fl);
  const sim::Sequence rnd = random_test_sequence(c, r.sequence.length(), 11);
  const FaultSet rnd_det = fsim.detect_no_scan(rnd);
  EXPECT_GE(r.detected.count(), rnd_det.count());
}

TEST(GreedyTgen, ReportedDetectionMatchesResimulation) {
  gen::GenParams p;
  p.name = "gt2";
  p.seed = 6;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 6;
  p.num_gates = 60;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  GreedyTgenOptions opt;
  opt.seed = 12;
  opt.max_length = 200;
  const GreedyTgenResult r = generate_test_sequence(c, fl, opt);

  FaultSimulator fsim(c, fl);
  EXPECT_EQ(fsim.detect_no_scan(r.sequence), r.detected);
}

TEST(GreedyTgen, DeterministicForSameSeed) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  GreedyTgenOptions opt;
  opt.seed = 42;
  opt.max_length = 120;
  const GreedyTgenResult a = generate_test_sequence(c, fl, opt);
  const GreedyTgenResult b = generate_test_sequence(c, fl, opt);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.detected, b.detected);
}

TEST(GreedyTgen, TransitionSequenceIsLaneWidthInvariant) {
  // Under transition faults each Session step packs the launching fault
  // groups lanes() per frame; the generated T0 and its detected set must
  // not depend on the width.  The circuit has enough classes for more
  // groups than one 512-bit frame holds.
  gen::GenParams p;
  p.name = "gt_tdf";
  p.seed = 8;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 12;
  p.num_gates = 400;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c, fault::FaultModel::transition());
  ASSERT_GT(fault::num_groups(fl.num_classes()), 8u);

  GreedyTgenOptions opt;
  opt.seed = 13;
  opt.max_length = 300;
  FaultSimulator w64(c, fl);
  w64.set_lane_width(sim::LaneWidth::W64);
  const GreedyTgenResult want = generate_test_sequence(w64, opt);
  ASSERT_GT(want.detected.count(), 0u);
  EXPECT_EQ(w64.detect_no_scan(want.sequence), want.detected);

  const GreedyTgenResult dflt = generate_test_sequence(c, fl, opt);
  EXPECT_EQ(dflt.sequence, want.sequence);
  EXPECT_EQ(dflt.detected, want.detected);
  for (const sim::LaneWidth w : {sim::LaneWidth::W256, sim::LaneWidth::W512}) {
    FaultSimulator wide(c, fl);
    wide.set_lane_width(w);
    const GreedyTgenResult got = generate_test_sequence(wide, opt);
    EXPECT_EQ(got.sequence, want.sequence) << sim::lane_width_name(w);
    EXPECT_EQ(got.detected, want.detected) << sim::lane_width_name(w);
  }
}

}  // namespace
}  // namespace scanc::tgen
