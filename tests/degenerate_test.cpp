// Degenerate-input tests: the empty and zero-sized corners every layer
// must survive gracefully — zero-fault target sets, empty PI sequences,
// and flip-flop-free circuits pushed through the scan-test pipeline.
// The differential fuzzer generates these shapes at random; the cases
// here pin them deterministically.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "atpg/comb_tset.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"

namespace scanc {
namespace {

using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using sim::Sequence;
using sim::Vector3;

Circuit small_circuit(std::size_t ffs) {
  gen::GenParams p;
  p.name = "degen";
  p.seed = 77;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = ffs;
  p.num_gates = 30;
  return gen::generate_circuit(p);
}

TEST(Degenerate, EmptyTargetSetDetectsNothing) {
  const Circuit c = small_circuit(4);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const FaultSet none(fsim.num_classes());
  Sequence seq = tgen::random_test_sequence(c, 5, 3);
  const Vector3 si(c.num_flip_flops(), sim::V3::Zero);

  EXPECT_EQ(fsim.detect_no_scan(seq, &none).count(), 0u);
  EXPECT_EQ(fsim.detect_scan_test(si, seq, &none).count(), 0u);
  const auto times = fsim.detection_times(si, seq, none);
  EXPECT_TRUE(times.targets.empty());
  const auto prefix = fsim.prefix_detection(si, seq, none);
  EXPECT_TRUE(prefix.targets.empty());
  EXPECT_TRUE(prefix.all_detected());  // vacuously
  EXPECT_TRUE(fsim.detects_all(si, seq, none));

  FaultSimulator::Session session(fsim, none);
  for (const Vector3& v : seq.frames) EXPECT_EQ(session.step(v), 0u);
  EXPECT_EQ(session.detected().count(), 0u);
}

TEST(Degenerate, EmptySequenceScanTest) {
  // A length-0 scan test loads and immediately scans out: the captured
  // state is the loaded state on both machines, so nothing is ever
  // detected — but nothing may crash either.
  const Circuit c = small_circuit(4);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const Sequence empty;
  const Vector3 si(c.num_flip_flops(), sim::V3::One);
  for (const auto lanes : {sim::LaneWidth::W64, sim::LaneWidth::Auto}) {
    fsim.set_lane_width(lanes);
    EXPECT_EQ(fsim.detect_scan_test(si, empty).count(), 0u);
    EXPECT_EQ(fsim.detect_no_scan(empty).count(), 0u);
    const FaultSet all = fsim.all_faults();
    const auto times = fsim.detection_times(si, empty, all);
    for (std::size_t j = 0; j < times.targets.size(); ++j) {
      EXPECT_EQ(times.first_po[j], -1);
      EXPECT_EQ(times.state_diff[j].count(), 0u);
    }
    EXPECT_FALSE(fsim.detects_all(si, empty, all));
  }
}

TEST(Degenerate, NoFlipFlopCircuitThroughScanPipeline) {
  // A purely combinational circuit has an empty scan chain: scan-in is
  // width 0, scan operations cost nothing, and the whole pipeline must
  // still run — N_cyc degenerates to the vector count.
  const Circuit c = small_circuit(0);
  ASSERT_EQ(c.num_flip_flops(), 0u);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  EXPECT_EQ(fsim.num_scanned(), 0u);

  const Vector3 empty_si;
  Sequence seq = tgen::random_test_sequence(c, 4, 9);
  const FaultSet scan_det = fsim.detect_scan_test(empty_si, seq);
  const FaultSet po_det = fsim.detect_no_scan(seq);
  EXPECT_EQ(scan_det, po_det);  // no state to observe at scan-out

  // The generator's Session saves, restores and counts no FF state.
  tgen::GreedyTgenOptions gopt;
  gopt.max_length = 40;
  const tgen::GreedyTgenResult greedy =
      tgen::generate_test_sequence(fsim, gopt);
  EXPECT_GT(greedy.sequence.length(), 0u);
  EXPECT_EQ(fsim.detect_no_scan(greedy.sequence), greedy.detected);

  atpg::CombTestSetOptions copt;
  copt.seed = 5;
  const atpg::CombTestSet comb = atpg::generate_comb_test_set(c, fl, copt);
  const sim::Sequence t0 = tgen::random_test_sequence(c, 20, 5);
  const tcomp::PipelineResult r =
      tcomp::run_pipeline(fsim, t0, comb.tests);
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.final_coverage.count(), 0u);
  // (k+1) * N_SV vanishes: cycles == applied vectors.
  EXPECT_EQ(r.compacted_cycles, r.compacted.total_vectors());
  EXPECT_EQ(r.initial_cycles,
            tcomp::clock_cycles(r.initial, fsim.num_scanned()));
}

TEST(Degenerate, MisWidthScanInIsRejected) {
  // A scan-in vector is indexed in flip_flops() order by every
  // simulator; a short one used to read out of bounds.  The width is
  // validated at the query boundary.
  const Circuit c = small_circuit(4);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  Sequence seq = tgen::random_test_sequence(c, 2, 1);
  const Vector3 narrow(2, sim::V3::Zero);
  const Vector3 wide(9, sim::V3::Zero);
  EXPECT_THROW((void)fsim.detect_scan_test(narrow, seq),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.detect_scan_test(wide, seq),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.detects_all(narrow, seq, fsim.all_faults()),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.detection_times(narrow, seq, fsim.all_faults()),
               std::invalid_argument);
  EXPECT_THROW((void)fsim.prefix_detection(narrow, seq, fsim.all_faults()),
               std::invalid_argument);
}

TEST(Degenerate, TransitionFaultsNeedTwoFrames) {
  // A transition fault launches across consecutive functional frames, so
  // length-0 and length-1 scan tests can never activate one: every query
  // must return "nothing detected" without crashing, on every lane width.
  const Circuit c = small_circuit(4);
  const FaultList fl =
      FaultList::build(c, fault::FaultModel::transition());
  FaultSimulator fsim(c, fl);
  const Vector3 si(c.num_flip_flops(), sim::V3::Zero);
  Sequence one;
  one.frames.push_back(Vector3(c.num_inputs(), sim::V3::One));
  for (const auto lanes : {sim::LaneWidth::W64, sim::LaneWidth::Auto}) {
    fsim.set_lane_width(lanes);
    for (const Sequence& seq : {Sequence{}, one}) {
      EXPECT_EQ(fsim.detect_scan_test(si, seq).count(), 0u);
      EXPECT_EQ(fsim.detect_no_scan(seq).count(), 0u);
      const FaultSet all = fsim.all_faults();
      const auto times = fsim.detection_times(si, seq, all);
      for (std::size_t j = 0; j < times.targets.size(); ++j) {
        EXPECT_EQ(times.first_po[j], -1);
        EXPECT_EQ(times.state_diff[j].count(), 0u);
      }
      EXPECT_FALSE(fsim.detects_all(si, seq, all));
    }
  }
}

TEST(Degenerate, TransitionNoFlipFlopCircuitThroughScanPipeline) {
  // Flip-flop-free circuit under the transition model: the pipeline must
  // complete even though scan tests are single-vector (nothing ever
  // launches, so coverage may legitimately be zero).
  const Circuit c = small_circuit(0);
  const FaultList fl =
      FaultList::build(c, fault::FaultModel::transition());
  FaultSimulator fsim(c, fl);
  // C stays stuck-at (the ATPG is stuck-at-only, as in the runner).
  const FaultList sa = FaultList::build(c);
  atpg::CombTestSetOptions copt;
  copt.seed = 5;
  const atpg::CombTestSet comb = atpg::generate_comb_test_set(c, sa, copt);
  const sim::Sequence t0 = tgen::random_test_sequence(c, 20, 5);
  const tcomp::PipelineResult r = tcomp::run_pipeline(fsim, t0, comb.tests);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.compacted_cycles, r.compacted.total_vectors());
}

TEST(Degenerate, BatchEdgeShapes) {
  // The pattern-parallel batch API on its degenerate shapes: an empty
  // batch, a single-test batch (below the lanes threshold, so the
  // per-test fallback runs), and a ragged batch whose size is not a
  // multiple of the lane count — each element must still equal its
  // per-test answer, at every lane width.
  const Circuit c = small_circuit(4);
  const FaultList fl = FaultList::build(c);
  FaultSimulator ref(c, fl);
  ref.set_lane_width(sim::LaneWidth::W64);

  std::vector<Vector3> scan_ins;
  std::vector<Sequence> seqs;
  for (std::size_t i = 0; i < 9; ++i) {
    scan_ins.push_back(Vector3(c.num_flip_flops(),
                               i % 2 ? sim::V3::One : sim::V3::Zero));
    // Ragged lengths, including a length-0 test in the middle.
    seqs.push_back(tgen::random_test_sequence(
        c, i == 4 ? 0 : 1 + (i * 3) % 7, 100 + i));
  }
  std::vector<FaultSimulator::BatchTest> batch(9);
  std::vector<FaultSet> want;
  for (std::size_t i = 0; i < 9; ++i) {
    batch[i] = {&scan_ins[i], &seqs[i]};
    want.push_back(ref.detect_scan_test(scan_ins[i], seqs[i]));
  }

  for (const auto lw : {sim::LaneWidth::W64, sim::LaneWidth::W256,
                        sim::LaneWidth::W512}) {
    FaultSimulator fsim(c, fl);
    fsim.set_lane_width(lw);
    EXPECT_TRUE(
        fsim.detect_batch(std::span<const FaultSimulator::BatchTest>{})
            .empty());
    const auto one = fsim.detect_batch(std::span(batch).first(1));
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], want[0]);
    const auto all = fsim.detect_batch(batch);
    ASSERT_EQ(all.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(all[i], want[i]) << "test " << i;
    }
  }
}

TEST(Degenerate, BatchRejectsMixedScanAndNoScan) {
  // One batch must be homogeneous: all tests with a scan-in state or
  // none (the engine packs scan-out observation per pass, not per lane).
  const Circuit c = small_circuit(4);
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const Vector3 si(c.num_flip_flops(), sim::V3::Zero);
  Sequence seq = tgen::random_test_sequence(c, 3, 17);
  const std::vector<FaultSimulator::BatchTest> mixed = {
      {&si, &seq}, {nullptr, &seq}};
  EXPECT_THROW((void)fsim.detect_batch(mixed), std::invalid_argument);
}

TEST(Degenerate, ZeroThreadsMeansHardwareConcurrency) {
  // set_num_threads(0) = one worker per hardware thread; results stay
  // bit-identical to serial even on degenerate inputs.
  const Circuit c = small_circuit(3);
  const FaultList fl = FaultList::build(c);
  FaultSimulator serial(c, fl);
  FaultSimulator wide(c, fl);
  wide.set_num_threads(0);
  const Sequence empty;
  Sequence seq = tgen::random_test_sequence(c, 3, 11);
  const Vector3 si(c.num_flip_flops(), sim::V3::X);
  EXPECT_EQ(serial.detect_scan_test(si, seq),
            wide.detect_scan_test(si, seq));
  EXPECT_EQ(serial.detect_scan_test(si, empty),
            wide.detect_scan_test(si, empty));
}

}  // namespace
}  // namespace scanc
