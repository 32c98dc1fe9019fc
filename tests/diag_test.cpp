#include <gtest/gtest.h>

#include <stdexcept>

#include "atpg/comb_tset.hpp"
#include "diag/diagnosis.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "tcomp/baselines.hpp"
#include "tcomp/pipeline.hpp"
#include "tgen/greedy_tgen.hpp"

namespace scanc::diag {
namespace {

using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSimulator;
using netlist::Circuit;

struct DiagRig {
  Circuit circuit;
  FaultList faults;
  std::unique_ptr<FaultSimulator> fsim;
  tcomp::ScanTestSet tests;

  explicit DiagRig(Circuit c)
      : circuit(std::move(c)), faults(FaultList::build(circuit)) {
    fsim = std::make_unique<FaultSimulator>(circuit, faults);
    const atpg::CombTestSet comb =
        atpg::generate_comb_test_set(circuit, faults, {});
    tests = tcomp::comb_initial_set(comb.tests);
  }
};

TEST(Diagnosis, FaultFreeDeviceYieldsNoFailures) {
  DiagRig rig(gen::make_s27());
  // "Observed" = the expected responses themselves.
  ObservedResponses obs;
  for (const tcomp::ScanTest& t : rig.tests.tests) {
    obs.push_back(tcomp::expected_response(rig.circuit, t));
  }
  const DiagnosisResult r = diagnose(*rig.fsim, rig.tests, obs);
  EXPECT_EQ(r.failing_tests, 0u);
  // Consistent candidates are exactly the faults the set does NOT detect
  // (undetected faults predict the fault-free response everywhere).
  const fault::FaultSet det = tcomp::coverage(*rig.fsim, rig.tests);
  for (const Candidate& c : r.candidates) {
    EXPECT_FALSE(det.test(c.fault));
    EXPECT_EQ(c.explained_failures, 0u);
  }
}

// A response set that does not fit the test set is rejected before any
// position is read: too few responses, a short PO vector, or a short
// scan-out vector.
TEST(Diagnosis, RejectsMisshapenObservedResponses) {
  DiagRig rig(gen::make_s27());
  ObservedResponses obs;
  for (const tcomp::ScanTest& t : rig.tests.tests) {
    obs.push_back(tcomp::expected_response(rig.circuit, t));
  }
  ASSERT_GE(obs.size(), 2u);

  ObservedResponses truncated(obs.begin(), obs.end() - 1);
  EXPECT_THROW((void)diagnose(*rig.fsim, rig.tests, truncated),
               std::invalid_argument);

  ObservedResponses short_po = obs;
  short_po.back().outputs.back().pop_back();
  EXPECT_THROW((void)diagnose(*rig.fsim, rig.tests, short_po),
               std::invalid_argument);
  const tcomp::ScanTest& last = rig.tests.tests.back();
  EXPECT_THROW((void)rig.fsim->consistent_faults(
                   last.scan_in, last.seq, short_po.back().outputs,
                   short_po.back().scan_out, rig.fsim->all_faults()),
               std::invalid_argument);

  ObservedResponses short_so = obs;
  short_so.front().scan_out.pop_back();
  EXPECT_THROW((void)diagnose(*rig.fsim, rig.tests, short_so),
               std::invalid_argument);
}

// A test set from outside the program is checked too, before anything
// is simulated: a short PI vector or a short scan-in vector in any test
// is rejected.
TEST(Diagnosis, RejectsMisshapenTestSequence) {
  DiagRig rig(gen::make_s27());
  ObservedResponses obs;
  for (const tcomp::ScanTest& t : rig.tests.tests) {
    obs.push_back(tcomp::expected_response(rig.circuit, t));
  }
  ASSERT_GE(obs.size(), 2u);

  tcomp::ScanTestSet short_pi = rig.tests;
  ASSERT_FALSE(short_pi.tests.back().seq.frames.empty());
  short_pi.tests.back().seq.frames.back().pop_back();
  EXPECT_THROW((void)diagnose(*rig.fsim, short_pi, obs),
               std::invalid_argument);

  tcomp::ScanTestSet short_si = rig.tests;
  short_si.tests.front().scan_in.pop_back();
  EXPECT_THROW((void)diagnose(*rig.fsim, short_si, obs),
               std::invalid_argument);
}

// Property: injecting each detectable fault and diagnosing with the same
// test set must keep the injected fault among the candidates, and every
// candidate must be response-equivalent to it under the set.
class DiagnosisProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiagnosisProperty, InjectedFaultIsAlwaysACandidate) {
  gen::GenParams p;
  p.name = "diag";
  p.seed = GetParam() * 23 + 5;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 5;
  p.num_gates = 50;
  DiagRig rig(gen::generate_circuit(p));
  const fault::FaultSet det = tcomp::coverage(*rig.fsim, rig.tests);

  std::size_t tried = 0;
  for (FaultClassId defect = 0;
       defect < rig.faults.num_classes() && tried < 12; ++defect) {
    if (!det.test(defect)) continue;
    ++tried;
    const ObservedResponses obs =
        simulate_defect(rig.circuit, rig.faults, defect, rig.tests);
    const DiagnosisResult r = diagnose(*rig.fsim, rig.tests, obs);
    EXPECT_GT(r.failing_tests, 0u);
    bool found = false;
    for (const Candidate& c : r.candidates) {
      if (c.fault == defect) found = true;
    }
    EXPECT_TRUE(found) << "defect "
                       << fault_name(rig.faults.representative(defect),
                                     rig.circuit)
                       << " missing from candidates";
    // The true defect explains every failing test.
    for (const Candidate& c : r.candidates) {
      if (c.fault == defect) {
        EXPECT_EQ(c.explained_failures, r.failing_tests);
      }
    }
  }
  EXPECT_GT(tried, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiagnosisProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Diagnosis, CompactedAtSpeedSetRemainsDiagnosable) {
  // The pipeline's compacted test set (one long tau_seq + top-offs) must
  // still localize an injected defect.
  gen::GenParams p;
  p.name = "diag2";
  p.seed = 77;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 70;
  const Circuit circuit = gen::generate_circuit(p);
  const FaultList faults = FaultList::build(circuit);
  FaultSimulator fsim(circuit, faults);
  const atpg::CombTestSet comb =
      atpg::generate_comb_test_set(circuit, faults, {});
  tgen::GreedyTgenOptions gopt;
  gopt.max_length = 200;
  const auto t0 = tgen::generate_test_sequence(circuit, faults, gopt);
  const tcomp::PipelineResult pr =
      tcomp::run_pipeline(fsim, t0.sequence, comb.tests);

  // Inject the first fault the set detects.
  FaultClassId defect = 0;
  for (; defect < faults.num_classes(); ++defect) {
    if (pr.final_coverage.test(defect)) break;
  }
  ASSERT_LT(defect, faults.num_classes());
  const ObservedResponses obs =
      simulate_defect(circuit, faults, defect, pr.compacted);
  const DiagnosisResult r = diagnose(fsim, pr.compacted, obs);
  ASSERT_FALSE(r.candidates.empty());
  bool found = false;
  for (const Candidate& c : r.candidates) found |= c.fault == defect;
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace scanc::diag
