// Static test compaction by combining ([4]: Pomeranz & Reddy, ATS 1998).
//
// Combining tests tau_i = (SI_i, T_i) and tau_j = (SI_j, T_j) removes one
// scan-out and one scan-in operation: the combined test is
// tau_ij = (SI_i, T_i . T_j).  A combination is accepted only if the test
// set's fault coverage is preserved.  The procedure greedily attempts
// pair combinations until no further pair can be combined, which is both
// the paper's Phase 4 and — applied to a combinational test set — the
// baseline procedure the paper compares against.
//
// Coverage preservation is checked on the pair's *essential* faults
// (those no other test in the current set detects); the combined test's
// detection set is then re-simulated to update the bookkeeping.
#pragma once

#include <cstdint>

#include "fault/fault_sim.hpp"
#include "tcomp/scan_test.hpp"

namespace scanc::tcomp {

/// Transfer-sequence extension ([7]: Pomeranz & Reddy, ATS 2000).  When a
/// plain combination loses coverage because tau_i's final state cannot
/// stand in for SI_j, a short *transfer sequence* W inserted between T_i
/// and T_j can drive the circuit toward a state under which T_j still
/// detects the pair's essential faults: tau_ij = (SI_i, T_i . W . T_j).
/// The combination stays profitable as long as L(W) < N_SV (the scan
/// operation it replaces).
struct TransferOptions {
  bool enabled = false;
  std::size_t max_length = 4;   ///< longest transfer sequence tried
  std::size_t candidates = 4;   ///< candidate vectors per grown position
  std::uint64_t seed = 1;
};

struct CombineOptions {
  /// Upper bound on accepted combinations (0 = unlimited).
  std::size_t max_combinations = 0;
  /// Cooperative cancellation, checked before every pair attempt.  The
  /// partially combined set returned on cancellation is a *valid* test
  /// set: every accepted combination preserved coverage, and a
  /// coverage check the token interrupts conservatively rejects its
  /// combination.
  util::CancelToken cancel;
  TransferOptions transfer;
};

struct CombineResult {
  ScanTestSet tests;
  std::size_t combinations = 0;  ///< accepted pair combinations
  std::size_t attempts = 0;      ///< coverage checks performed
};

/// Compacts `set` preserving its own coverage (computed internally over
/// all fault classes).
[[nodiscard]] CombineResult combine_tests(fault::FaultSimulator& fsim,
                                          const ScanTestSet& set,
                                          const CombineOptions& options =
                                              {});

}  // namespace scanc::tcomp
