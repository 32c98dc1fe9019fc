#include "diag/diagnosis.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/injection.hpp"
#include "sim/seq_sim.hpp"

namespace scanc::diag {

using fault::FaultClassId;
using fault::FaultSet;
using fault::FaultSimulator;

ObservedResponses simulate_defect(const netlist::Circuit& circuit,
                                  const fault::FaultList& faults,
                                  FaultClassId defect,
                                  const tcomp::ScanTestSet& set) {
  const fault::Fault& f = faults.representative(defect);
  sim::PackedSeqSim sim(circuit);
  sim::PackedInjectionMap inj(circuit.num_nodes());
  inj.add(f.node, f.pin, f.value, 1ULL << 1);  // slot 1 = the defect

  ObservedResponses out;
  out.reserve(set.size());
  for (const tcomp::ScanTest& t : set.tests) {
    sim.reset(&inj);
    sim.load_state(t.scan_in, &inj);
    tcomp::TestResponse r;
    r.outputs.reserve(t.seq.length());
    for (const sim::Vector3& pi : t.seq.frames) {
      sim.apply_frame(pi, &inj);
      sim::Vector3 po(circuit.num_outputs());
      for (std::size_t i = 0; i < circuit.primary_outputs().size(); ++i) {
        po[i] = sim::slot(sim.value(circuit.primary_outputs()[i]), 1);
      }
      r.outputs.push_back(std::move(po));
      sim.latch(&inj);
    }
    r.scan_out.resize(circuit.num_flip_flops());
    for (std::size_t i = 0; i < circuit.num_flip_flops(); ++i) {
      r.scan_out[i] = sim::slot(sim.captured(i), 1);
    }
    out.push_back(std::move(r));
  }
  return out;
}

DiagnosisResult diagnose(FaultSimulator& fsim,
                         const tcomp::ScanTestSet& set,
                         const ObservedResponses& observed) {
  if (observed.size() != set.size()) {
    throw std::invalid_argument(
        "diagnose: " + std::to_string(observed.size()) +
        " observed responses for " + std::to_string(set.size()) + " tests");
  }
  // The test set may come from outside the program too: every test and
  // response is checked before anything is simulated.
  for (std::size_t t = 0; t < set.size(); ++t) {
    fsim.check_test(&set.tests[t].scan_in, set.tests[t].seq);
    fsim.check_response(observed[t].outputs, observed[t].scan_out,
                        set.tests[t].seq);
  }
  DiagnosisResult result;
  const netlist::Circuit& circuit = fsim.circuit();

  // Which tests fail (observation differs from the fault-free
  // expectation at some binary position)?
  const auto differs = [](const sim::Vector3& a, const sim::Vector3& b) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (sim::is_binary(a[i]) && sim::is_binary(b[i]) && a[i] != b[i]) {
        return true;
      }
    }
    return false;
  };
  std::vector<char> failing(set.size(), 0);
  for (std::size_t t = 0; t < set.size(); ++t) {
    const tcomp::TestResponse expect =
        tcomp::expected_response(circuit, set.tests[t]);
    bool fail = differs(expect.scan_out, observed[t].scan_out);
    for (std::size_t u = 0; u < expect.outputs.size() && !fail; ++u) {
      fail = differs(expect.outputs[u], observed[t].outputs[u]);
    }
    failing[t] = fail ? 1 : 0;
    if (fail) ++result.failing_tests;
  }

  // Intersect the consistent-fault sets across all tests; restricting
  // each pass to the surviving candidates keeps the work shrinking.
  FaultSet candidates = fsim.all_faults();
  for (std::size_t t = 0; t < set.size() && !candidates.none(); ++t) {
    candidates = fsim.consistent_faults(
        set.tests[t].scan_in, set.tests[t].seq, observed[t].outputs,
        observed[t].scan_out, candidates);
  }

  // Rank: how many failing tests does each surviving candidate predict
  // (i.e. the fault is detected by that test)?
  std::vector<std::size_t> explained(fsim.num_classes(), 0);
  if (!candidates.none()) {
    // One pattern-parallel batch over the failing tests: the candidate
    // set is fixed here, so the batch is bit-identical to per-test runs.
    std::vector<fault::FaultSimulator::BatchTest> batch;
    batch.reserve(set.size());
    for (std::size_t t = 0; t < set.size(); ++t) {
      if (!failing[t]) continue;
      batch.push_back({&set.tests[t].scan_in, &set.tests[t].seq});
    }
    for (const FaultSet& det : fsim.detect_batch(batch, &candidates)) {
      det.for_each([&](std::size_t f) { ++explained[f]; });
    }
  }
  candidates.for_each([&](std::size_t f) {
    result.candidates.push_back(
        Candidate{static_cast<FaultClassId>(f), explained[f]});
  });
  std::sort(result.candidates.begin(), result.candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.explained_failures != b.explained_failures) {
                return a.explained_failures > b.explained_failures;
              }
              return a.fault < b.fault;
            });
  return result;
}

}  // namespace scanc::diag
