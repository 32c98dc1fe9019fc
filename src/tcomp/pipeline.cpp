#include "tcomp/pipeline.hpp"

#include <algorithm>

#include "util/telemetry.hpp"

namespace scanc::tcomp {

using fault::FaultSet;
using fault::FaultSimulator;

namespace {

/// Restores a simulator's cancel token and thread count on scope exit.
/// run_pipeline installs the pipeline's own token/threads at entry; a
/// simulator shared across jobs (the service's pooled simulators) must
/// not carry one job's raised token or thread setting into the next —
/// including when a query throws through the pipeline.
class SimStateGuard {
 public:
  explicit SimStateGuard(FaultSimulator& fsim)
      : fsim_(fsim),
        cancel_(fsim.cancel()),
        num_threads_(fsim.num_threads()) {}
  ~SimStateGuard() {
    fsim_.set_cancel(cancel_);
    fsim_.set_num_threads(num_threads_);
  }
  SimStateGuard(const SimStateGuard&) = delete;
  SimStateGuard& operator=(const SimStateGuard&) = delete;

 private:
  FaultSimulator& fsim_;
  util::CancelToken cancel_;
  std::size_t num_threads_;
};

}  // namespace

const char* to_string(PipelinePhase phase) noexcept {
  switch (phase) {
    case PipelinePhase::Iterate: return "phase1+2";
    case PipelinePhase::TopOff: return "phase3";
    case PipelinePhase::Combine: return "phase4";
    case PipelinePhase::Coverage: return "coverage";
    case PipelinePhase::Done: return "done";
  }
  return "?";
}

PipelineResult run_pipeline(FaultSimulator& fsim, const sim::Sequence& t0,
                            std::span<const atpg::CombTest> comb,
                            const PipelineOptions& options) {
  PipelineResult result;
  // The begin event carries the fault universe size (value) so live
  // watchers can turn per-round detection counts into coverage %.
  obs::Phase pipeline("pipeline", "phase", nullptr, 0, fsim.num_classes());
  // Every exit (including cancellation) reports N_cyc for whatever test
  // sets it is returning, all via the one shared cost-model helper.
  const auto finish = [&]() -> PipelineResult& {
    const std::size_t nsv = fsim.num_scanned();
    const std::size_t chains = std::max<std::size_t>(1, options.num_chains);
    result.num_chains = chains;
    result.initial_cycles = clock_cycles(result.initial, nsv, chains);
    result.compacted_cycles = clock_cycles(result.compacted, nsv, chains);
    pipeline.report(result.final_coverage.count());
    return result;
  };
  // The caller's token/threads are restored on every exit path (see
  // SimStateGuard) so a pooled simulator comes back clean.
  const SimStateGuard guard(fsim);
  if (options.num_threads != 0) fsim.set_num_threads(options.num_threads);
  fsim.set_cancel(options.cancel);

  // Phases 1 and 2, iterated.
  IterateResult it;
  {
    obs::Phase phase("phase1+2", "phase", "phases 1+2 (iterated)");
    IterateOptions iopt = options.iterate;
    if (!iopt.cancel.valid()) iopt.cancel = options.cancel;
    it = iterate_phases(fsim, t0, comb, iopt);
    phase.credit(it.f_seq.count());
  }
  result.tau_seq = std::move(it.tau_seq);
  result.f0 = std::move(it.f0);
  result.f_seq = it.f_seq;
  result.iterations = it.iterations.size();
  // Cancellation before the first complete round leaves the detection
  // sets default-constructed; normalise to empty sets over the classes.
  if (result.f0.size() != fsim.num_classes()) {
    result.f0 = FaultSet(fsim.num_classes());
  }
  if (result.f_seq.size() != fsim.num_classes()) {
    result.f_seq = FaultSet(fsim.num_classes());
  }

  if (it.stopped || options.cancel.stop_requested()) {
    // Graceful degradation: the best complete tau_seq (if any) becomes
    // the whole test set; its coverage is known without re-simulation.
    if (it.tau_valid) result.initial.tests.push_back(result.tau_seq);
    result.compacted = result.initial;
    result.final_coverage = result.f_seq;
    result.completed = false;
    result.stopped_at = PipelinePhase::Iterate;
    return finish();
  }

  // Phase 3: cover F - F_seq from C.
  FaultSet undetected = fsim.all_faults();
  if (options.universe.size() == undetected.size()) {
    // Proven-untestable classes leave F before top-off: Phase 3 only
    // chases faults some test could still detect.
    const std::size_t before = undetected.count();
    undetected &= options.universe;
    result.excluded_untestable = before - undetected.count();
  }
  undetected -= result.f_seq;
  TopOffResult topoff;
  {
    obs::Phase phase("phase3", "phase", "phase 3 (top-off)",
                     undetected.count());
    topoff = top_off(fsim, comb, undetected);
    phase.credit(undetected.count() - topoff.uncoverable.count());
  }
  result.added_tests = topoff.tests.size();
  result.uncoverable = std::move(topoff.uncoverable);

  result.initial.tests.reserve(1 + topoff.tests.size());
  result.initial.tests.push_back(result.tau_seq);
  for (ScanTest& t : topoff.tests.tests) {
    result.initial.tests.push_back(std::move(t));
  }

  if (options.cancel.stop_requested()) {
    // Phase 3 ran on partial simulation results: keep its tests (each
    // is a real length-one test) but only claim the coverage proven by
    // the complete Phase 1+2 rounds.
    result.compacted = result.initial;
    result.final_coverage = result.f_seq;
    result.completed = false;
    result.stopped_at = PipelinePhase::TopOff;
    return finish();
  }

  // Coverage of `initial`, exact by construction: tau_seq's faults plus
  // everything Phase 3 covered (= undetected minus uncoverable).
  FaultSet initial_coverage = undetected;
  initial_coverage -= result.uncoverable;
  initial_coverage |= result.f_seq;

  // Phase 4: static compaction by combining.
  if (options.run_phase4) {
    const obs::Phase phase("phase4", "phase", "phase 4 (combining)", 0,
                           result.initial.tests.size());
    CombineOptions copt = options.combine;
    if (!copt.cancel.valid()) copt.cancel = options.cancel;
    CombineResult comp = combine_tests(fsim, result.initial, copt);
    result.compacted = std::move(comp.tests);
    result.combinations = comp.combinations;
  } else {
    result.compacted = result.initial;
  }

  if (options.cancel.stop_requested()) {
    // The partially combined set is valid and coverage-preserving;
    // avoid a final simulation pass that would itself be cut short.
    result.final_coverage = std::move(initial_coverage);
    result.completed = false;
    result.stopped_at = PipelinePhase::Combine;
    return finish();
  }

  {
    obs::Phase phase("coverage");
    result.final_coverage = coverage(fsim, result.compacted);
    phase.report(result.final_coverage.count());
  }
  if (options.cancel.stop_requested()) {
    // The coverage simulation itself was interrupted; fall back to the
    // provable value.
    result.final_coverage = std::move(initial_coverage);
    result.completed = false;
    result.stopped_at = PipelinePhase::Coverage;
  }
  return finish();
}

}  // namespace scanc::tcomp
