// Partial-scan extension tests: the paper notes the procedure extends to
// partial scan; these tests pin down the extension's semantics — an
// unscanned flip-flop is unknown at test start, unobservable at
// scan-out, and never a PODEM decision variable.
#include <gtest/gtest.h>

#include "atpg/comb_tset.hpp"
#include "atpg/podem.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/model.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"

namespace scanc {
namespace {

using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;

util::Bitset mask_of(std::initializer_list<int> scanned, std::size_t n) {
  util::Bitset m(n);
  for (const int i : scanned) m.set(static_cast<std::size_t>(i));
  return m;
}

// ff0 observable only via scan-out; ff1 readable only through logic.
Circuit two_ff_circuit() {
  netlist::CircuitBuilder b("pscan");
  b.add_input("a");
  b.add_input("bsel");
  b.add_gate(GateType::Dff, "q0", {"d0"});
  b.add_gate(GateType::Dff, "q1", {"d1"});
  b.add_gate(GateType::And, "d0", {"a", "bsel"});
  b.add_gate(GateType::Xor, "d1", {"a", "q1"});
  b.add_gate(GateType::And, "o", {"q1", "bsel"});
  b.mark_output("o");
  return b.build();
}

TEST(PartialScanSim, UnscannedScanInIsIgnored) {
  const Circuit c = two_ff_circuit();
  for (const fault::FaultModel* model :
       {&fault::FaultModel::stuck_at(), &fault::FaultModel::transition()}) {
    SCOPED_TRACE(model->name());
    const FaultList fl = FaultList::build(c, *model);
    // Only ff0 scanned: scan-in values for ff1 must be forced to X, so
    // runs differing only in ff1's scan-in bit agree.  Under the
    // transition model that covers the masked scan-in of the fault-free
    // trace, built per query and per batch test; frame 0 never launches,
    // so its test needs at least 3 frames to launch at frames 1 and 2.
    FaultSimulator fsim(c, fl, mask_of({0}, 2));
    sim::Sequence seq;
    seq.frames.push_back(sim::vector3_from_string("11"));
    if (model->frame_gated()) {
      seq.frames.push_back(sim::vector3_from_string("01"));
      seq.frames.push_back(sim::vector3_from_string("11"));
    }
    const sim::Vector3 si[] = {
        sim::vector3_from_string("10"), sim::vector3_from_string("11"),
        sim::vector3_from_string("00"), sim::vector3_from_string("01")};
    const FaultSet a = fsim.detect_scan_test(si[0], seq);
    const FaultSet b = fsim.detect_scan_test(si[1], seq);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.none()) << "the comparison must not be vacuous";

    const FaultSimulator::BatchTest with_0[] = {{&si[0], &seq},
                                                {&si[2], &seq}};
    const FaultSimulator::BatchTest with_1[] = {{&si[1], &seq},
                                                {&si[3], &seq}};
    const std::vector<FaultSet> batch_0 = fsim.detect_batch(with_0);
    const std::vector<FaultSet> batch_1 = fsim.detect_batch(with_1);
    ASSERT_EQ(batch_0.size(), 2u);
    EXPECT_EQ(batch_0, batch_1);
    EXPECT_EQ(batch_0[0], a);
  }
}

TEST(PartialScanSim, UnscannedCaptureNotObserved) {
  const Circuit c = two_ff_circuit();
  const FaultList fl = FaultList::build(c);
  // d0 stuck-at-0 is observable only at ff0's capture.  With ff0 off the
  // scan chain the fault must go undetected; with ff0 scanned it is
  // caught by a=1, bsel=1.
  sim::Sequence seq;
  seq.frames.push_back(sim::vector3_from_string("11"));
  const sim::Vector3 si = sim::vector3_from_string("11");

  const auto class_of_d0_sa0 = [&]() -> fault::FaultClassId {
    for (std::size_t i = 0; i < fl.num_faults(); ++i) {
      const fault::Fault& f = fl.faults()[i];
      if (f.node == c.find("d0") && f.pin == sim::kStemPin &&
          !f.value) {
        return fl.class_of(i);
      }
    }
    ADD_FAILURE();
    return 0;
  }();

  FaultSimulator full(c, fl);
  EXPECT_TRUE(full.detect_scan_test(si, seq).test(class_of_d0_sa0));

  FaultSimulator partial(c, fl, mask_of({1}, 2));
  EXPECT_FALSE(partial.detect_scan_test(si, seq).test(class_of_d0_sa0));
}

TEST(PartialScanSim, MaskedCoverageNeverExceedsFullScan) {
  gen::GenParams p;
  p.name = "ps";
  p.seed = 77;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  p.num_gates = 90;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  util::Rng rng(5);
  const sim::Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);
  const sim::Vector3 si = sim::random_vector(c.num_flip_flops(), rng);

  FaultSimulator full(c, fl);
  const FaultSet all = full.detect_scan_test(si, seq);
  for (const auto scanned : {0b00001111, 0b01010101, 0b00000000}) {
    util::Bitset m(8);
    for (int i = 0; i < 8; ++i) {
      if ((scanned >> i) & 1) m.set(static_cast<std::size_t>(i));
    }
    FaultSimulator partial(c, fl, m);
    EXPECT_EQ(partial.num_scanned(), m.count());
    const FaultSet det = partial.detect_scan_test(si, seq);
    EXPECT_TRUE(all.contains(det)) << scanned;
  }
}

TEST(PartialScanPodem, CubesRespectMaskAndDetect) {
  gen::GenParams p;
  p.name = "psp";
  p.seed = 31;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 70;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const util::Bitset mask = mask_of({0, 2, 4}, 6);

  atpg::PodemOptions popt;
  popt.scan_mask = mask;
  atpg::Podem podem(c, popt);
  FaultSimulator fsim(c, fl, mask);
  util::Rng rng(9);

  std::size_t detected = 0;
  for (fault::FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const atpg::PodemResult r = podem.generate(fl.representative(id));
    if (r.status != atpg::PodemStatus::Detected) continue;
    ++detected;
    // Unscanned state bits stay X in the cube.
    for (const std::size_t i : {1u, 3u, 5u}) {
      EXPECT_EQ(r.cube.state[i], sim::V3::X);
    }
    sim::Vector3 state = r.cube.state;
    sim::Vector3 inputs = r.cube.inputs;
    sim::randomize_x(inputs, rng);
    for (std::size_t i = 0; i < 6; ++i) {
      if (mask.test(i) && state[i] == sim::V3::X) {
        state[i] = sim::v3_from_bool(rng.coin());
      } else if (!mask.test(i)) {
        state[i] = sim::V3::X;
      }
    }
    sim::Sequence seq;
    seq.frames.push_back(inputs);
    EXPECT_TRUE(fsim.detect_scan_test(state, seq).test(id))
        << fault_name(fl.representative(id), c);
  }
  EXPECT_GT(detected, 0u);
}

// Regression: under partial scan, PODEM's backtrace can dead-end on an
// unscanned flip-flop (an unassignable X source).  Treating that
// dead-end as branch exhaustion used to make generate() return
// Untestable for faults that are detectable — here the detectability
// witness is a masked fault-simulation run on a cube the SAT backend
// produced for exactly this configuration (circuit seed 13, scan mask
// {0,2,3} of 6, fault pi0 stuck-at-0).  A dead-ended search must end
// Detected or Aborted, never Untestable.
TEST(PartialScanPodem, BacktraceDeadEndIsNeverAnUntestabilityProof) {
  gen::GenParams p;
  p.name = "psdead";
  p.seed = 13;
  p.num_inputs = 6;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 80;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const util::Bitset mask = mask_of({0, 2, 3}, 6);

  atpg::PodemOptions popt;
  popt.scan_mask = mask;
  atpg::Podem podem(c, popt);
  FaultSimulator fsim(c, fl, mask);
  util::Rng rng(17);

  // No fault PODEM calls untestable may be detectable by simulation:
  // try to detect every "untestable" class with random mask-respecting
  // tests — any hit disproves the proof.
  FaultSet claimed_untestable(fl.num_classes());
  for (fault::FaultClassId id = 0; id < fl.num_classes(); ++id) {
    if (podem.generate(fl.representative(id)).status ==
        atpg::PodemStatus::Untestable) {
      claimed_untestable.set(id);
    }
  }
  for (int t = 0; t < 64; ++t) {
    sim::Vector3 state = sim::random_vector(6, rng);
    for (std::size_t i = 0; i < 6; ++i) {
      if (!mask.test(i)) state[i] = sim::V3::X;
    }
    sim::Sequence seq;
    seq.frames.push_back(sim::random_vector(c.num_inputs(), rng));
    const FaultSet det =
        fsim.detect_scan_test(state, seq, &claimed_untestable);
    det.for_each([&](std::size_t id) {
      ADD_FAILURE() << "PODEM claimed untestable but simulation detects "
                    << fault_name(fl.representative(
                           static_cast<fault::FaultClassId>(id)), c);
    });
  }
}

TEST(PartialScanFlow, PipelineRunsEndToEnd) {
  gen::GenParams p;
  p.name = "psf";
  p.seed = 41;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 8;
  p.num_gates = 90;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const util::Bitset mask = mask_of({0, 1, 2, 3}, 8);

  atpg::CombTestSetOptions copt;
  copt.podem.scan_mask = mask;
  const atpg::CombTestSet comb = atpg::generate_comb_test_set(c, fl, copt);
  for (const atpg::CombTest& t : comb.tests) {
    for (const std::size_t i : {4u, 5u, 6u, 7u}) {
      EXPECT_EQ(t.state[i], sim::V3::X);
    }
  }

  FaultSimulator fsim(c, fl, mask);
  const sim::Sequence t0 = tgen::random_test_sequence(c, 150, 3);
  const tcomp::PipelineResult r =
      tcomp::run_pipeline(fsim, t0, comb.tests);
  EXPECT_TRUE(r.final_coverage.contains(r.f_seq));
  EXPECT_TRUE(r.final_coverage.contains(comb.detected));

  // Partial scan cannot beat full-scan coverage.
  FaultSimulator full_sim(c, fl);
  const atpg::CombTestSet full_comb =
      atpg::generate_comb_test_set(c, fl, {});
  const tcomp::PipelineResult full =
      tcomp::run_pipeline(full_sim, t0, full_comb.tests);
  EXPECT_LE(r.final_coverage.count(), full.final_coverage.count());
}

}  // namespace
}  // namespace scanc
