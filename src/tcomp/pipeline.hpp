// The complete DAC-2001 compaction procedure (Sections 3.1-3.5).
//
//   Phase 1+2 (iterated): T0 -> tau_seq = (SI_seq, T_seq)
//   Phase 3: top-off tests from C for faults undetected by tau_seq
//   Phase 4: static compaction by combining [4]
//
// run_pipeline takes the test sequence T0 (from tgen — the [10]/[12]
// substitute — or a random sequence, the paper's Table 5 variant) and
// the combinational test set C (from atpg), and returns every
// intermediate artifact the paper's tables report.
#pragma once

#include <cstdint>

#include "atpg/comb_tset.hpp"
#include "fault/fault_sim.hpp"
#include "tcomp/baselines.hpp"
#include "tcomp/combine.hpp"
#include "tcomp/iterate.hpp"
#include "tcomp/topoff.hpp"

namespace scanc::tcomp {

/// Where a cancelled pipeline stopped (docs/robustness.md).
enum class PipelinePhase : std::uint8_t {
  Iterate,   ///< phases 1+2 (iterated)
  TopOff,    ///< phase 3
  Combine,   ///< phase 4
  Coverage,  ///< final coverage simulation
  Done,      ///< ran to completion
};

[[nodiscard]] const char* to_string(PipelinePhase phase) noexcept;

struct PipelineOptions {
  IterateOptions iterate;
  CombineOptions combine;
  bool run_phase4 = true;  ///< ablation: skip final static compaction
  /// Balanced scan chains for the cost accounting: a scan operation
  /// shifts ceil(N_SV / num_chains) cycles (0 and 1 both mean the
  /// paper's single chain).  Affects only the reported N_cyc numbers —
  /// the compaction decisions themselves minimise vectors and tests,
  /// which are chain-count independent.
  std::size_t num_chains = 1;
  /// Fault-simulation worker threads for every phase (applied to `fsim`
  /// at pipeline entry): 0 = keep the simulator's current setting,
  /// 1 = serial, otherwise that many threads.  Results are identical for
  /// every setting (see docs/execution.md).
  std::size_t num_threads = 0;
  /// Fault universe for Phase 3 top-off (empty = every collapsed
  /// class).  Callers holding untestability proofs (the SAT ATPG
  /// backend, docs/atpg.md) pass all faults minus the proven-untestable
  /// classes so top-off never chases faults no test can detect and the
  /// `uncoverable` report stays honest.  Must be sized to the
  /// simulator's class count when non-empty.  Phases 1+2, 4 and the
  /// final coverage measurement are unaffected: coverage is still
  /// reported against every class.
  fault::FaultSet universe;
  /// Cooperative cancellation for the whole pipeline: installed on
  /// `fsim` at entry (frame-granular aborts) and checked between
  /// phases.  On cancellation the pipeline returns its best-so-far
  /// compacted set with completed == false instead of discarding work.
  util::CancelToken cancel;
};

struct PipelineResult {
  // Phase 1+2 (iterated).
  ScanTest tau_seq;              ///< the long at-speed test
  fault::FaultSet f0;            ///< detected by T0 alone (Table 1 "T0")
  fault::FaultSet f_seq;         ///< detected by tau_seq (Table 1 "scan")
  std::size_t iterations = 0;

  // Phase 3.
  std::size_t added_tests = 0;   ///< Table 2 "added c.tst"
  fault::FaultSet uncoverable;   ///< faults neither tau_seq nor C detect
  /// Classes `options.universe` excluded from Phase 3 (proven
  /// untestable upstream); 0 when no universe was supplied.
  std::size_t excluded_untestable = 0;

  // Test sets.
  ScanTestSet initial;           ///< {tau_seq} + top-off (end of Phase 3)
  ScanTestSet compacted;         ///< after Phase 4 (== initial if skipped)
  fault::FaultSet final_coverage;  ///< detected by `compacted`
  std::size_t combinations = 0;  ///< Phase 4 accepted combinations

  // Cost accounting (N_cyc via clock_cycles_from_counts, with N_SV =
  // the simulator's scanned-cell count and the options' chain count —
  // each scan operation costs ceil(N_SV / num_chains) cycles).
  std::size_t num_chains = 1;          ///< chain count used for N_cyc
  std::uint64_t initial_cycles = 0;    ///< N_cyc of `initial`
  std::uint64_t compacted_cycles = 0;  ///< N_cyc of `compacted`

  // Graceful degradation (cooperative cancellation).
  /// False when the cancel token cut the run short; the test sets then
  /// hold the best result completed before the cut (possibly empty when
  /// cancellation struck before the first Phase 1+2 round finished).
  bool completed = true;
  /// First phase the cancellation prevented from completing (Done when
  /// the pipeline ran to the end).
  PipelinePhase stopped_at = PipelinePhase::Done;
};

[[nodiscard]] PipelineResult run_pipeline(fault::FaultSimulator& fsim,
                                          const sim::Sequence& t0,
                                          std::span<const atpg::CombTest>
                                              comb,
                                          const PipelineOptions& options =
                                              {});

}  // namespace scanc::tcomp
