#include "atpg/comb_tset.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::atpg {

using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;

fault::FaultSet detect_comb_test(FaultSimulator& fsim, const CombTest& test,
                                 const FaultSet* targets) {
  sim::Sequence seq;
  seq.frames.push_back(test.inputs);
  return fsim.detect_scan_test(test.state, seq, targets);
}

std::vector<fault::FaultSet> detect_comb_tests(FaultSimulator& fsim,
                                               std::span<const CombTest> tests,
                                               const FaultSet* targets) {
  std::vector<sim::Sequence> seqs(tests.size());
  std::vector<FaultSimulator::BatchTest> batch(tests.size());
  for (std::size_t j = 0; j < tests.size(); ++j) {
    seqs[j].frames.push_back(tests[j].inputs);
    batch[j] = {&tests[j].state, &seqs[j]};
  }
  return fsim.detect_batch(batch, targets);
}

namespace {

/// Fills X positions with random binary values, except at unscanned
/// flip-flop positions (partial scan), which must stay X.
void randomize_state(sim::Vector3& state, const util::Bitset& scan_mask,
                     util::Rng& rng) {
  for (std::size_t i = 0; i < state.size(); ++i) {
    const bool scanned = scan_mask.empty() || scan_mask.test(i);
    if (!scanned) {
      state[i] = sim::V3::X;
    } else if (state[i] == sim::V3::X) {
      state[i] = sim::v3_from_bool(rng.coin());
    }
  }
}

/// Pattern-pool size of the random source.
constexpr std::size_t kRandomPool = 4096;

/// |det ∩ needs|: the outstanding faults a test would cover.
std::size_t gain_of(const FaultSet& det, const FaultSet& needs) {
  std::size_t gain = 0;
  for (std::size_t wi = 0; wi < det.num_words(); ++wi) {
    gain += static_cast<std::size_t>(
        std::popcount(det.word(wi) & needs.word(wi)));
  }
  return gain;
}

/// Static compaction.  A greedy cover over the tests' detection sets
/// repeatedly keeps the test covering the most still-uncovered faults
/// (the lowest index wins ties); it gives smaller sets than reverse
/// order alone (the substitute for the minimal test sets of [9]).  A
/// reverse-order pass over the kept tests then drops every test whose
/// faults the tests after it already cover.  A test's detection set
/// does not depend on the other tests, so both passes share one
/// simulation.
void compact(FaultSimulator& fsim, std::vector<CombTest>& tests) {
  const std::vector<FaultSet> det = detect_comb_tests(fsim, tests);
  FaultSet covered(fsim.num_classes());
  for (const FaultSet& d : det) covered |= d;

  std::vector<std::size_t> order;
  FaultSet needs = covered;
  for (;;) {
    std::size_t best = tests.size();
    std::size_t best_gain = 0;
    for (std::size_t j = 0; j < tests.size(); ++j) {
      const std::size_t gain = gain_of(det[j], needs);
      if (gain > best_gain) {
        best = j;
        best_gain = gain;
      }
    }
    if (best == tests.size()) break;  // nothing else helps
    order.push_back(best);
    needs -= det[best];
  }

  needs = covered;
  std::vector<CombTest> kept;
  for (std::size_t k = order.size(); k-- > 0;) {
    const FaultSet& d = det[order[k]];
    if (gain_of(d, needs) == 0) continue;
    needs -= d;
    kept.push_back(std::move(tests[order[k]]));
  }
  std::reverse(kept.begin(), kept.end());
  tests = std::move(kept);
}

}  // namespace

CombTestSet generate_comb_test_set(const Circuit& circuit,
                                   const FaultList& faults,
                                   const CombTestSetOptions& options) {
  const util::Bitset& mask = options.podem.scan_mask;
  FaultSimulator fsim(circuit, faults,
                      mask.empty()
                          ? util::Bitset(circuit.num_flip_flops(), true)
                          : mask);
  Podem podem(circuit, options.podem);
  // The SAT backend is built lazily: under Auto it only exists once
  // PODEM aborts on some target, so the common all-easy run never pays
  // for the CNF encoding.
  std::unique_ptr<SatBackend> sat;
  const auto sat_backend = [&]() -> SatBackend& {
    if (!sat) {
      SatBackendOptions so = options.sat;
      so.scan_mask = mask;
      so.cancel = options.cancel;
      sat = std::make_unique<SatBackend>(circuit, so);
    }
    return *sat;
  };
  const auto run_engine = [&](const fault::Fault& f) {
    if (options.backend == AtpgBackend::Sat) return sat_backend().generate(f);
    PodemResult r = podem.generate(f);
    if (options.backend == AtpgBackend::Auto &&
        r.status == PodemStatus::Aborted) {
      obs::add(obs::Counter::AtpgSatFallbacks);
      r = sat_backend().generate(f);
    }
    return r;
  };
  util::Rng rng(options.seed ^ 0xc0b1ed5e7ULL);

  CombTestSet out;
  out.detected = FaultSet(faults.num_classes());
  out.untestable = FaultSet(faults.num_classes());
  // Classes still worth simulating.  Aborted classes stay in it (later
  // tests may still catch them by simulation) but are not retried.
  FaultSet active(faults.num_classes());
  active.fill();

  for (FaultClassId id = 0; id < faults.num_classes(); ++id) {
    if (options.cancel.stop_requested()) break;
    if (!active.test(id)) continue;
    const PodemResult r = run_engine(faults.representative(id));
    if (r.status == PodemStatus::Untestable) {
      ++out.proven_untestable;
      out.untestable.set(id);
      active.reset(id);
      continue;
    }
    if (r.status == PodemStatus::Aborted) {
      ++out.aborted;
      continue;
    }
    CombTest t{r.cube.state, r.cube.inputs};
    randomize_state(t.state, mask, rng);
    sim::randomize_x(t.inputs, rng);
    const FaultSet det = detect_comb_test(fsim, t, &active);
    out.detected |= det;
    active -= det;
    out.tests.push_back(std::move(t));
  }

  // A cancelled run skips compaction too: the caller discards the set.
  if (options.cancel.stop_requested()) return out;
  compact(fsim, out.tests);
  return out;
}

CombTestSet generate_random_comb_test_set(const Circuit& circuit,
                                          const FaultList& faults,
                                          const CombTestSetOptions& options) {
  const util::Bitset& mask = options.podem.scan_mask;
  FaultSimulator fsim(circuit, faults,
                      mask.empty()
                          ? util::Bitset(circuit.num_flip_flops(), true)
                          : mask);
  util::Rng rng(options.seed ^ 0x9a4d03c5ULL);

  CombTestSet out;
  out.detected = FaultSet(faults.num_classes());
  out.untestable = FaultSet(faults.num_classes());
  FaultSet undetected(faults.num_classes());
  undetected.fill();

  for (std::size_t i = 0; i < kRandomPool; ++i) {
    if (undetected.none() || options.cancel.stop_requested()) break;
    CombTest t{sim::random_vector(circuit.num_flip_flops(), rng),
               sim::random_vector(circuit.num_inputs(), rng)};
    randomize_state(t.state, mask, rng);
    const FaultSet det = detect_comb_test(fsim, t, &undetected);
    if (det.none()) continue;
    out.detected |= det;
    undetected -= det;
    out.tests.push_back(std::move(t));
  }

  if (options.cancel.stop_requested()) return out;
  compact(fsim, out.tests);
  return out;
}

}  // namespace scanc::atpg
