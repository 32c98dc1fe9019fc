// Experiment runner: everything the paper's Tables 1-5 need, measured on
// one circuit.
//
// For each circuit the runner builds the fault universe, the
// combinational test set C, the two T0 sources (ATPG-style greedy
// generation — the [10]/[12] substitute — and a random sequence of length
// 1000, the Table 5 variant), runs the proposed 4-phase procedure on
// both, and runs the baselines ([4] initial/compacted, [2,3]-style
// dynamic).  Results are cached on disk keyed by circuit + seed so the
// per-table bench binaries share one computation.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "atpg/sat_backend.hpp"
#include "fault/fault_list.hpp"
#include "fault/model.hpp"
#include "gen/suite.hpp"
#include "tcomp/scan_test.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {
class FaultSimulator;
}

namespace scanc::expt {

/// Pre-built inputs a multi-job host (the svc/ daemon's shared-state
/// registry) can hand to run_circuit so concurrent jobs on the same
/// circuit reuse one parsed circuit and collapsed fault list instead of
/// rebuilding them per job.  Entries are immutable once published —
/// readers share them copy-on-write and a rebuild replaces the pointer
/// wholesale.  Either field may be null (run_circuit builds that input
/// itself); a non-null faults must have been built on the non-null
/// circuit under the options' fault model.
struct SharedInputs {
  std::shared_ptr<const netlist::Circuit> circuit;
  std::shared_ptr<const fault::FaultList> faults;
};

/// Measurements for one T0 variant of the proposed procedure.
struct VariantResult {
  std::size_t det_t0 = 0;     ///< faults detected by T0 without scan
  std::size_t det_scan = 0;   ///< faults detected by tau_seq
  std::size_t det_final = 0;  ///< faults detected by the final test set
  std::size_t len_t0 = 0;     ///< L(T0)
  std::size_t len_scan = 0;   ///< L(T_seq)
  std::size_t added = 0;      ///< tests added in Phase 3
  std::uint64_t cyc_init = 0; ///< N_cyc at end of Phase 3
  std::uint64_t cyc_comp = 0; ///< N_cyc at end of Phase 4
  double atspeed_ave = 0.0;   ///< average L(T_i) in the compacted set
  std::size_t atspeed_min = 0;
  std::size_t atspeed_max = 0;
  std::size_t tests_final = 0;    ///< k: tests in the compacted set
  std::size_t vectors_final = 0;  ///< sum L(T_j) over the compacted set
};

/// All measurements for one circuit.
struct CircuitRun {
  std::string name;
  std::size_t flip_flops = 0;
  std::size_t comb_tests = 0;   ///< |C|
  std::size_t faults = 0;       ///< collapsed fault classes
  std::size_t detectable = 0;   ///< classes not proven untestable
  /// Classes proven untestable by ATPG (search exhausted or SAT UNSAT
  /// proof); always faults - detectable.
  std::size_t proven_untestable = 0;
  /// Classes the configured ATPG backend gave up on (testability still
  /// unknown at the end of generation).  Always 0 under --atpg=sat or
  /// --atpg=auto with an adequate conflict budget — the acceptance gate
  /// this PR adds (see expt_test).
  std::size_t aborted = 0;

  VariantResult atpg;           ///< T0 from the greedy generator
  VariantResult random;         ///< T0 random, length 1000

  std::uint64_t cyc_dyn = 0;       ///< [2,3]-style dynamic baseline
  std::uint64_t cyc_4_init = 0;    ///< [4] initial test set
  std::uint64_t cyc_4_comp = 0;    ///< [4] after compaction
  double atspeed_ave_4 = 0.0;      ///< [4] compacted at-speed stats
  std::size_t atspeed_min_4 = 0;
  std::size_t atspeed_max_4 = 0;

  double seconds = 0.0;         ///< wall-clock runtime of the measurement
                                ///  (accumulated across resumed attempts)

  /// False when cancellation (deadline or signal) cut the measurement
  /// short; the fields then hold best-so-far values and `stopped_at`
  /// names the phase that did not complete.  Partial runs are never
  /// written to the result cache; completed phases live in the
  /// checkpoint journal and are reused on the next attempt.
  bool completed = true;
  std::string stopped_at;
};

struct RunnerOptions {
  std::uint64_t seed = 1;
  std::size_t random_t0_length = 1000;
  /// Fault-simulation worker threads (0 = one per hardware thread).
  /// Measured numbers are identical for every setting; only wall-clock
  /// time changes, so cached results stay valid across thread counts.
  std::size_t num_threads = 1;
  /// ATPG backend for the combinational test set C and the fault
  /// universe (docs/atpg.md).  Podem (default) reproduces the
  /// structural-only measurement bit-for-bit.  Sat and Auto resolve
  /// every fault — aborted classes get a SAT verdict, and
  /// proven-untestable classes leave the fault universe before Phase 3
  /// — so they measure different numbers and get their own cache
  /// entries (cache_entry_path suffix).
  atpg::AtpgBackend atpg = atpg::AtpgBackend::Podem;
  /// Fault model for the whole measurement: the fault universe and every
  /// simulation query switch together.  The combinational ATPG stays
  /// stuck-at-only, so under Transition the test set C is generated
  /// against the stuck-at universe and its length-one tests launch no
  /// transitions — exactly the at-speed gap the paper's procedure closes.
  /// Changes the measured numbers, so results are cached under a
  /// model-suffixed path (cache_entry_path).
  fault::FaultModelKind fault_model = fault::FaultModelKind::StuckAt;
  /// Balanced scan chains for the N_cyc cost accounting: a scan
  /// operation shifts ceil(N_SV / num_chains) cycles (0 and 1 both mean
  /// the paper's single chain).  Changes every reported cycle count, so
  /// chain counts > 1 also get their own cache entries.
  std::size_t num_chains = 1;
  bool run_dynamic_baseline = true;
  /// Cache file path prefix; empty disables caching *and* the per-phase
  /// checkpoint journal (see docs/robustness.md for the on-disk format).
  std::string cache_path = ".scanc_cache";
  bool force_fresh = false;  ///< ignore cached entries and journals
  bool verbose = false;      ///< progress notes to stderr
  /// Optional provider of shared, immutable inputs (see SharedInputs).
  /// Called once at measurement entry; null fields are built locally.
  std::function<SharedInputs(const gen::SuiteEntry&, fault::FaultModelKind)>
      shared_inputs;
  /// Optional pre-built simulator to run every query on.  The caller
  /// keeps ownership and must guarantee exclusive use for the duration
  /// of the call; it must have been constructed on exactly the circuit
  /// and fault list `shared_inputs` returns.  run_circuit installs its
  /// own threads/cancel settings and detaches the cancel token
  /// on every exit path, so a pooled simulator comes back clean for the
  /// next job.
  fault::FaultSimulator* simulator = nullptr;
  /// Optional machine progress hook: called with a short note on entry
  /// to every runner stage and pipeline phase that has one (the strings
  /// --verbose prints; run_circuit installs it as the thread's
  /// obs::EventJobScope hook).  The service watchdog uses it as a
  /// per-job liveness stamp.  Must not throw.
  std::function<void(const char*)> progress;
  /// Cooperative cancellation for the whole run: raised explicitly
  /// (e.g. by util::ScopedSignalCancel on SIGINT/SIGTERM) or by a
  /// deadline (util::CancelToken::make(util::Deadline::after(s)) — the
  /// bench binaries' --time-budget flag).  On cancellation run_circuit
  /// returns a partial CircuitRun (completed == false) after
  /// checkpointing every finished phase, and run_suite stops launching
  /// circuits.  The default token never cancels.
  util::CancelToken cancel;
};

/// Runs (or loads from cache) the full measurement for one suite entry.
[[nodiscard]] CircuitRun run_circuit(const gen::SuiteEntry& entry,
                                     const RunnerOptions& options);

/// Runs the suite (all entries; `include_large` adds s35932).
[[nodiscard]] std::vector<CircuitRun> run_suite(bool include_large,
                                                const RunnerOptions& options);

/// Cache primitives (exposed for tests).
[[nodiscard]] std::string serialize_run(const CircuitRun& run);
[[nodiscard]] std::optional<CircuitRun> deserialize_run(
    const std::string& text);

/// On-disk location of the cached result for `circuit_name` under
/// `options` (the per-phase checkpoint journal lives next to it at this
/// path + ".journal").  Exposed for the resilience tests.
[[nodiscard]] std::string cache_entry_path(const RunnerOptions& options,
                                           const std::string& circuit_name);

}  // namespace scanc::expt
