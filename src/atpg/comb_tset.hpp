// Compact combinational test-set generation (the paper's test set C).
//
// The DAC-2001 procedure consumes a complete, compact combinational test
// set C for the scan view of the circuit: scan-in candidates come from
// the state parts of C's tests (Phase 1), and top-off tests come from C
// itself (Phase 3).  The paper took C from minimal-test-set work [9] for
// ISCAS-89 and from random-pattern selection for ITC-99; this module
// provides both sources:
//
//   generate_comb_test_set        — deterministic PODEM (or the SAT
//                                   backend, docs/atpg.md) with fault
//                                   dropping, then static compaction
//                                   (the [9] substitute), and
//   generate_random_comb_test_set — greedy selection out of a large
//                                   random-pattern pool, then the same
//                                   static compaction.
//
// Static compaction is a greedy set cover over the tests' detection
// sets followed by a reverse-order redundancy drop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/sat_backend.hpp"
#include "fault/fault_sim.hpp"
#include "util/cancel.hpp"

namespace scanc::atpg {

/// One fully-specified combinational (scan) test.
struct CombTest {
  sim::Vector3 state;   ///< scan-in part c_js (flip_flops() order)
  sim::Vector3 inputs;  ///< primary-input part c_jp
};

/// A combinational test set plus coverage bookkeeping.
struct CombTestSet {
  std::vector<CombTest> tests;
  fault::FaultSet detected;       ///< classes detected by the final set
  /// Classes proven untestable (search exhausted / SAT proof).  Sized
  /// num_classes whenever `detected` is; `untestable.count()` equals
  /// `proven_untestable`.  Downstream phases may drop these classes
  /// from their fault universe: no scan test of any length detects a
  /// combinationally-redundant fault under full scan.
  fault::FaultSet untestable;
  std::size_t proven_untestable = 0;  ///< search exhausted: no test exists
  std::size_t aborted = 0;        ///< ATPG hit its backtrack/conflict limit

  /// Number of tests in the set (|C|).
  [[nodiscard]] std::size_t num_tests() const noexcept {
    return tests.size();
  }
};

/// Options for test-set generation.
struct CombTestSetOptions {
  std::uint64_t seed = 1;           ///< random fill / pattern pool seed
  PodemOptions podem;               ///< PODEM search bounds
  /// Backend selection (docs/atpg.md): Podem runs PODEM alone; Sat
  /// sends every target straight to the SAT backend; Auto runs PODEM
  /// first and falls back to SAT only for targets it aborts on, so
  /// every fault ends the run Detected or proven Untestable (up to the
  /// SAT conflict limit).
  AtpgBackend backend = AtpgBackend::Podem;
  /// SAT backend bounds.  `sat.scan_mask` and `sat.cancel` are
  /// overridden with `podem.scan_mask` and `cancel` below so both
  /// backends see one scan configuration and one cancellation signal.
  SatBackendOptions sat;
  /// Cooperative cancellation, polled between per-fault targets.  A
  /// cancelled run returns the tests generated so far — callers that
  /// observe the raised token must discard the truncated set (the
  /// experiment runner does; see its phase checks).
  util::CancelToken cancel;
};

/// Deterministic ATPG test set: one PODEM (or SAT) call per
/// still-undetected collapsed fault class, fault dropping after every
/// generated test, then static compaction.
[[nodiscard]] CombTestSet generate_comb_test_set(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    const CombTestSetOptions& options = {});

/// Random-selection test set: draws up to 4096 random (state, input)
/// patterns, keeps those that detect new faults, then compacts them.
/// Coverage is whatever the pool achieves (no untestability proofs).
[[nodiscard]] CombTestSet generate_random_comb_test_set(
    const netlist::Circuit& circuit, const fault::FaultList& faults,
    const CombTestSetOptions& options = {});

/// Applies one combinational test as a length-one scan test and returns
/// the classes it detects among `targets`.
[[nodiscard]] fault::FaultSet detect_comb_test(
    fault::FaultSimulator& fsim, const CombTest& test,
    const fault::FaultSet* targets = nullptr);

/// Batch form of detect_comb_test: one detection set per test, in
/// order, routed through the simulator's pattern-parallel (PPSFP) path
/// — bit-identical to calling detect_comb_test on each.
[[nodiscard]] std::vector<fault::FaultSet> detect_comb_tests(
    fault::FaultSimulator& fsim, std::span<const CombTest> tests,
    const fault::FaultSet* targets = nullptr);

}  // namespace scanc::atpg
