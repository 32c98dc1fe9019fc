// Phase 2 of the DAC-2001 procedure: vector omission (Section 3.2).
//
// Starting from tau_SO = (SI, T_SO) and its detected fault set F_SO, omit
// as many vectors as possible from T_SO without losing the detection of
// any fault in F_SO — static compaction of a single test sequence in the
// style of [8] (Pomeranz & Reddy, DAC 1996).
//
// Implementation notes.  A trial that removes vectors at positions
// >= u cannot disturb any fault whose earliest detection lies strictly
// before u (the prefix is unchanged), so each trial re-simulates only
// the faults first detected at or after u — plus the faults whose only
// detection is the final scan-out, which any omission can disturb.
// Because those scan-out-detected faults force every trial to simulate
// to the end of the sequence, pure single-vector trials cost O(L^2)
// frames; the sweep therefore removes *blocks* of vectors first
// (geometrically shrinking block sizes down to single vectors, in the
// spirit of delta debugging) under an explicit simulation budget.
// Coverage preservation is exact for every accepted omission.
#pragma once

#include <cstdint>

#include "fault/fault_sim.hpp"
#include "tcomp/scan_test.hpp"

namespace scanc::tcomp {

struct OmissionResult {
  ScanTest test;            ///< tau_C = (SI, T_C)
  std::size_t omitted = 0;  ///< vectors removed
};

/// Omits vectors from `test` while preserving detection of everything in
/// `required`.  `required` must be detected by `test` on entry.
[[nodiscard]] OmissionResult omit_vectors(fault::FaultSimulator& fsim,
                                          const ScanTest& test,
                                          const fault::FaultSet& required);

}  // namespace scanc::tcomp
