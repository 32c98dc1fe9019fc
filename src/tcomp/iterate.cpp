#include "tcomp/iterate.hpp"

#include <algorithm>

#include "util/event_bus.hpp"
#include "util/telemetry.hpp"

namespace scanc::tcomp {

using fault::FaultSet;
using fault::FaultSimulator;
using sim::Sequence;

namespace {

/// Cap on Phase 1+2 rounds, below the paper's bound of |C|.  In practice
/// coverage and length settle within a few rounds; the cap bounds
/// runtime on large circuits where |C| is big.
constexpr std::size_t kMaxIterations = 4;

}  // namespace

IterateResult iterate_phases(FaultSimulator& fsim, const Sequence& t0,
                             std::span<const atpg::CombTest> comb,
                             const IterateOptions& options) {
  IterateResult result;
  std::vector<char> selected(comb.size(), 0);

  Sequence current = t0;
  bool have_result = false;
  const std::size_t limit = std::min(kMaxIterations, comb.size());
  for (std::size_t iter = 0; iter < limit; ++iter) {
    if (options.cancel.stop_requested()) {
      result.stopped = true;
      break;
    }
    const obs::Phase round("round");
    Phase1Result p1;
    {
      const obs::Phase phase("phase1", "phase",
                             "phase 1 (scan-in / scan-out selection)");
      p1 = run_phase1(fsim, current, comb, selected, options.phase1);
    }
    if (iter == 0) result.f0 = p1.f0;

    ScanTest tau = p1.test;
    FaultSet detected = p1.f_so;
    std::size_t omitted = 0;
    if (options.apply_omission && !options.cancel.stop_requested()) {
      const obs::Phase phase("phase2", "phase", "phase 2 (vector omission)");
      OmissionResult om =
          options.phase2_method == Phase2Method::Restoration
              ? restore_vectors(fsim, tau, p1.f_so, options.restoration)
              : omit_vectors(fsim, tau, p1.f_so);
      omitted = om.omitted;
      tau = std::move(om.test);
      // Omission preserves F_SO and can add detections (Section 3.2 /
      // [8]); refresh the detected set.
      if (omitted > 0) {
        detected = fsim.detect_scan_test(tau.scan_in, tau.seq);
      }
    }

    // A round the token interrupted ran on partial fault-simulation
    // results; discard it and keep the best complete round.
    if (options.cancel.stop_requested()) {
      result.stopped = true;
      break;
    }

    obs::add(obs::Counter::IterateRounds);
    result.iterations.push_back(IterationRecord{
        p1.chosen_candidate, detected.count(), tau.seq.length(), omitted});
    // Live coverage delta: one event per complete round, carrying the
    // round's detection count and index (watchers derive coverage % and
    // the drop-rate curve from the stream without polling).
    obs::publish_event(obs::EventKind::Round, "phase1+2", detected.count(),
                       iter);

    // Keep the best test seen: more detections, then shorter sequence.
    const bool better =
        !have_result || detected.count() > result.f_seq.count() ||
        (detected.count() == result.f_seq.count() &&
         tau.seq.length() < result.tau_seq.seq.length());
    if (better) {
      result.tau_seq = tau;
      result.f_seq = detected;
      have_result = true;
    } else if (iter > 0) {
      // No progress: the round neither detected more faults nor
      // shortened the sequence.
      break;
    }

    if (p1.chose_selected || !options.iterate) break;
    selected[p1.chosen_candidate] = 1;
    current = tau.seq;
  }
  result.tau_valid = have_result;
  return result;
}

}  // namespace scanc::tcomp
