// Phase 1 of the DAC-2001 procedure: turning a test sequence T0 into a
// scan-based test (Section 3.1 of the paper).
//
//   Step 1  fault-simulate T0 from the all-X state (no scan) -> F0.
//   Step 2  choose the scan-in state SI from the state parts of the
//           combinational test set C, maximizing the faults detected by
//           (SI, T0); only F - F0 is simulated.  Candidates already used
//           in earlier iterations ("selected") lose ties to unselected
//           ones and win only with strictly higher coverage.
//   Step 3  choose the scan-out time unit u_SO: the earliest prefix
//           (SI, T0[0,u]) that still detects every fault in F_SI.  A
//           single detection-time recording pass replaces the paper's
//           repeated prefix simulations (see FaultSimulator::
//           detection_times); the selection is semantically identical.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/comb_tset.hpp"
#include "fault/fault_sim.hpp"
#include "tcomp/scan_test.hpp"

namespace scanc::tcomp {

/// Scan-out time-unit selection rule (Section 3.1 discussion).
enum class ScanOutRule : std::uint8_t {
  EarliestFull,   ///< i0: smallest u with F_SO,u >= F_SI (paper default)
  LargestSet,     ///< i1: u maximizing |F_SO,u|, smallest on ties
};

struct Phase1Options {
  ScanOutRule scan_out_rule = ScanOutRule::EarliestFull;
};

struct Phase1Result {
  ScanTest test;            ///< tau_SO = (SI, T_SO)
  fault::FaultSet f0;       ///< detected by T0 without scan
  fault::FaultSet f_si;     ///< detected by (SI, T0)
  fault::FaultSet f_so;     ///< detected by tau_SO
  std::size_t chosen_candidate = 0;  ///< index into C
  bool chose_selected = false;       ///< SI source was already selected
  std::size_t scan_out_time = 0;     ///< u_SO
};

/// Runs Phase 1.  `selected[j]` marks candidates used by earlier
/// iterations (tie-losers).  C must be non-empty.
[[nodiscard]] Phase1Result run_phase1(fault::FaultSimulator& fsim,
                                      const sim::Sequence& t0,
                                      std::span<const atpg::CombTest> comb,
                                      std::span<const char> selected,
                                      const Phase1Options& options = {});

}  // namespace scanc::tcomp
