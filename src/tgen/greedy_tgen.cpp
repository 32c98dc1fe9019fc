#include "tgen/greedy_tgen.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace scanc::tgen {

using fault::FaultSet;
using fault::FaultSimulator;
using sim::Sequence;
using sim::V3;
using sim::Vector3;

namespace {

/// One candidate segment: random vectors with per-bit hold probability.
Sequence make_candidate(const Vector3* previous, std::size_t width,
                        std::size_t length, std::uint32_t hold_percent,
                        util::Rng& rng) {
  Sequence seg;
  seg.frames.reserve(length);
  const Vector3* last = previous;
  for (std::size_t t = 0; t < length; ++t) {
    Vector3 v(width, V3::Zero);
    for (std::size_t i = 0; i < width; ++i) {
      if (last != nullptr && rng.chance(hold_percent, 100)) {
        v[i] = (*last)[i];
      } else {
        v[i] = sim::v3_from_bool(rng.coin());
      }
    }
    seg.frames.push_back(std::move(v));
    last = &seg.frames.back();
  }
  return seg;
}

}  // namespace

GreedyTgenResult generate_test_sequence(const netlist::Circuit& circuit,
                                        const fault::FaultList& faults,
                                        const GreedyTgenOptions& options) {
  FaultSimulator fsim(circuit, faults);
  return generate_test_sequence(fsim, options);
}

GreedyTgenResult generate_test_sequence(FaultSimulator& fsim,
                                        const GreedyTgenOptions& options) {
  const netlist::Circuit& circuit = fsim.circuit();
  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  util::Rng rng(options.seed ^ 0x9e3cafe5ULL);

  GreedyTgenResult result;
  result.detected = FaultSet(fsim.num_classes());

  std::size_t stalled = 0;
  while (result.sequence.length() < options.max_length &&
         stalled < options.stall_rounds &&
         !options.cancel.stop_requested()) {
    const auto base = session.snapshot();
    const Vector3* prev = result.sequence.empty()
                              ? nullptr
                              : &result.sequence.frames.back();

    Sequence best_seg;
    FaultSimulator::Session::Snapshot best_snap;
    std::size_t best_new = 0;
    std::size_t best_latched = 0;
    bool have_best = false;

    for (std::size_t k = 0; k < options.candidates; ++k) {
      const std::size_t len =
          options.segment_min +
          rng.below(options.segment_max - options.segment_min + 1);
      Sequence seg = make_candidate(prev, circuit.num_inputs(), len,
                                    options.hold_percent, rng);
      std::size_t newly = 0;
      for (const Vector3& v : seg.frames) newly += session.step(v);
      const std::size_t latched = session.latched_effects();
      // Normalize fitness by length: shorter segments with equal yield
      // win, keeping T0 compact.
      const bool better =
          !have_best ||
          newly * best_seg.length() > best_new * seg.length() ||
          (newly * best_seg.length() == best_new * seg.length() &&
           latched > best_latched);
      if (better) {
        best_seg = std::move(seg);
        best_snap = session.snapshot();
        best_new = newly;
        best_latched = latched;
        have_best = true;
      }
      session.restore(base);
    }

    session.restore(best_snap);
    for (Vector3& v : best_seg.frames) {
      result.sequence.frames.push_back(std::move(v));
    }
    stalled = (best_new == 0) ? stalled + 1 : 0;
  }

  result.detected = session.detected();
  return result;
}

}  // namespace scanc::tgen
