// Differential + metamorphic checking of one fuzz workload.
//
// Every FaultSimulator query is executed under a matrix of
// configurations that must be bit-identical by contract:
//
//   reference     1 thread, 64-bit lanes, one simulator for the whole
//                 case (under the transition model its traces exercise
//                 cache hits, in-place extension, copy-on-write and
//                 partial prefix reuse)
//   w64/N         N threads, 64-bit lanes, shared simulator
//   default/cold  1 thread, default lanes, fresh simulator per query
//                 (every trace is a cache miss: cold vs the warm
//                 reference)
//   wide          1 thread, CheckConfig::lane_width lanes (the
//                 SIMD-or-portable wide fault-parallel engine)
//   wide/N        N threads, wide lanes
//
// and the pattern-parallel batch queries (check_batch): detect_batch /
// times_batch over all of the workload's scan tests plus a ragged
// no-scan batch, at every distinct lane width (64 = per-test fallback,
// 256/512 = packed PPSFP engine), each element compared against the
// scalar per-test reference answer,
//
// plus the scalar single-fault oracle (check/oracle_sim.hpp), and the
// metamorphic properties the paper's accounting guarantees:
//
//   - consistent_faults against the fault-free response is exactly the
//     complement of the detected set over the targets;
//   - prefix_detection and detection_times agree, and the prefix test
//     (SI, T[0,u]) detects exactly { f : first_po <= u or u in
//     state_diff[f] };
//   - PO detections of a prefix are a subset of the full test's
//     detections;
//   - detects_all is true on the detected set and false once any
//     undetected fault is added;
//   - omit_vectors preserves every required fault (checked on every
//     configuration, not just the reference that accepted the
//     omission);
//   - N_cyc = (k+1)*ceil(N_SV/chains) + sum L(T_j), recomputed here
//     from first principles, matches tcomp::clock_cycles;
//   - a snapshot/restore'd Session re-detects exactly what the
//     uninterrupted run detects (resume == uninterrupted);
//   - with CheckConfig::atpg enabled, the SAT ATPG backend's verdicts
//     (docs/atpg.md): definite PODEM and SAT verdicts agree, every
//     SAT-generated cube detects its fault under the reference
//     simulator, no test of the encoding's shape (one frame for
//     stuck-at, two for transition) detects a SAT-proven-untestable
//     fault, and under Auto the comb generator resolves every fault.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "check/workload.hpp"
#include "sim/simd.hpp"

namespace scanc::check {

/// SAT ATPG cross-check mode (see the law list above).
enum class AtpgCheck : std::uint8_t {
  Off,  ///< skip the ATPG laws (default; the matrix is SAT-free)
  Sat,  ///< per-fault SAT verdict laws (agreement, cubes, proofs)
  Auto, ///< Sat laws plus the end-to-end --atpg=auto zero-abort law
};

struct CheckConfig {
  /// Worker threads for the parallel configurations (the N in 1-vs-N).
  std::size_t threads = 8;
  /// Maximum fault classes cross-checked against the oracle per test
  /// (the oracle is O(nodes * frames) per fault; cases are small, so
  /// the default covers every class on typical workloads).
  std::size_t oracle_fault_cap = 128;
  bool run_oracle = true;
  bool run_metamorphic = true;
  /// Lane width for the wide configurations (wide, wide/N)
  /// and the batch checks.  The reference always runs 64-bit scalar
  /// lanes; Auto picks the widest implementation this build + CPU has
  /// (portable wide words where intrinsics are missing, so the matrix
  /// is meaningful on any host).
  sim::LaneWidth lane_width = sim::LaneWidth::Auto;
  /// Per-case watchdog: a case still running after this many seconds is
  /// cut at the next comparison boundary and reported with timed_out
  /// set (obs.check_case_timeouts).  A timeout is NOT a divergence —
  /// comparisons completed before the cut keep their verdicts, the rest
  /// are skipped.  0 disables the watchdog.
  double max_case_seconds = 0.0;
  /// SAT ATPG cross-check (fuzz_check --atpg=off|sat|auto).  The check
  /// runs the backend with an unbounded conflict budget, so on fuzz-
  /// sized workloads every verdict is definite and each law is exact.
  AtpgCheck atpg = AtpgCheck::Off;
  /// Maximum fault classes put through the per-fault SAT laws per case.
  std::size_t atpg_fault_cap = 64;
};

/// Outcome of checking one workload.
struct CaseReport {
  std::vector<std::string> divergences;  ///< empty = case passed
  std::size_t comparisons = 0;           ///< individual equalities checked
  bool timed_out = false;  ///< cut by CheckConfig::max_case_seconds

  [[nodiscard]] bool failed() const noexcept { return !divergences.empty(); }
};

/// Runs the full comparison matrix on `w`.  Updates the obs.check.*
/// telemetry counters.
[[nodiscard]] CaseReport check_case(const Workload& w,
                                    const CheckConfig& cfg = {});

}  // namespace scanc::check
