// Iterative application of Phases 1 and 2 (Section 3.3).
//
// Starting from T0, each iteration re-selects a scan-in state for the
// current compacted sequence, re-selects the scan-out time, and omits
// vectors.  Combinational tests that provided a scan-in state are marked
// "selected"; the iteration terminates when the best candidate is one
// that was already selected (unselected candidates win ties), or after
// |C| iterations.  The result is the single long test tau_seq.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/comb_tset.hpp"
#include "fault/fault_sim.hpp"
#include "tcomp/omission.hpp"
#include "tcomp/phase1.hpp"
#include "tcomp/restoration.hpp"
#include "util/cancel.hpp"

namespace scanc::tcomp {

/// Which static sequence-compaction engine implements Phase 2.
enum class Phase2Method : std::uint8_t {
  Omission,     ///< [8]-style vector omission (paper default)
  Restoration,  ///< [11]-style vector restoration
};

struct IterateOptions {
  Phase1Options phase1;
  OmissionOptions omission;
  RestorationOptions restoration;
  Phase2Method phase2_method = Phase2Method::Omission;
  bool apply_omission = true;  ///< ablation: disable Phase 2
  bool iterate = true;         ///< ablation: single pass of Phases 1-2
  /// Cap on Phase 1+2 rounds (0 = the paper's bound of |C|).  In
  /// practice coverage and length settle within a few rounds; the cap
  /// bounds runtime on large circuits where |C| is big.
  std::size_t max_iterations = 4;
  /// Stop early when a round neither detects more faults nor shortens
  /// the sequence.
  bool stop_on_no_progress = true;
  /// Cooperative cancellation: checked before each round and after each
  /// phase step.  A round interrupted mid-flight is *discarded* (its
  /// fault-simulation results are partial) and the best complete round
  /// so far is returned, flagged via IterateResult::stopped.
  util::CancelToken cancel;
};

/// Trace of one iteration, for diagnostics and tests.
struct IterationRecord {
  std::size_t candidate = 0;       ///< scan-in source index in C
  std::size_t detected = 0;        ///< |F_C| after the iteration
  std::size_t sequence_length = 0; ///< |T_C| after the iteration
  std::size_t omitted = 0;
};

struct IterateResult {
  ScanTest tau_seq;          ///< final (SI_seq, T_seq)
  fault::FaultSet f_seq;     ///< faults detected by tau_seq
  fault::FaultSet f0;        ///< faults detected by the original T0 alone
  std::vector<IterationRecord> iterations;
  /// True when tau_seq/f_seq hold a complete round's result (false only
  /// when cancellation struck before any round finished).
  bool tau_valid = false;
  /// True when cancellation cut the iteration short; tau_seq is then the
  /// best *complete* round seen before the cut.
  bool stopped = false;
};

[[nodiscard]] IterateResult iterate_phases(
    fault::FaultSimulator& fsim, const sim::Sequence& t0,
    std::span<const atpg::CombTest> comb, const IterateOptions& options = {});

}  // namespace scanc::tcomp
