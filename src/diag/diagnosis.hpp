// Effect-cause fault diagnosis.
//
// Given a test program (a scan test set) and the responses observed on a
// failing device, rank the single stuck-at fault candidates that explain
// the behaviour.  A candidate is *consistent* with a test when its
// predicted response matches the observation at every binary position
// (X positions are ignored on both sides); the classic single-fault
// diagnosis keeps the faults consistent with every test and ranks them
// by how many failing tests they explain.
//
// This module closes the loop on the compaction flow: the compacted test
// sets this library produces remain diagnosable, and the example
// (examples/diagnosis_demo.cpp) demonstrates locating an injected defect
// with the compacted at-speed test set.
#pragma once

#include <cstddef>
#include <vector>

#include "fault/fault_sim.hpp"
#include "tcomp/response.hpp"
#include "tcomp/scan_test.hpp"

namespace scanc::diag {

/// Observed behaviour of the device under test, one entry per test in
/// the set (same shape as the expected responses).
using ObservedResponses = std::vector<tcomp::TestResponse>;

/// Simulates the device behaviour under fault `defect` for every test —
/// the ground-truth generator for experiments and tests.
[[nodiscard]] ObservedResponses simulate_defect(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    fault::FaultClassId defect, const tcomp::ScanTestSet& set);

/// One diagnosis candidate.
struct Candidate {
  fault::FaultClassId fault = 0;
  std::size_t explained_failures = 0;  ///< failing tests it predicts exactly
};

struct DiagnosisResult {
  /// Candidates consistent with every observed response, ranked by the
  /// number of failing tests they explain (descending), then by class id.
  std::vector<Candidate> candidates;
  /// Number of tests whose observation differs from the fault-free
  /// expectation (0 = the device passes; diagnosis is vacuous).
  std::size_t failing_tests = 0;
};

/// Runs single-fault effect-cause diagnosis.  Throws
/// std::invalid_argument, before simulating anything, unless every test
/// of `set` fits the circuit (FaultSimulator::check_test) and
/// `observed` holds one response per test, each shaped as
/// FaultSimulator::check_response requires.
[[nodiscard]] DiagnosisResult diagnose(fault::FaultSimulator& fsim,
                                       const tcomp::ScanTestSet& set,
                                       const ObservedResponses& observed);

}  // namespace scanc::diag
