#include "tcomp/phase1.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/telemetry.hpp"

namespace scanc::tcomp {

using fault::FaultClassId;
using fault::FaultSet;
using fault::FaultSimulator;
using sim::Sequence;

namespace {

/// Scan-in candidate screening: when C and T0 are large, rank all
/// candidates on the first kScreenPrefix time units of T0 and fully
/// evaluate only the best kScreenKeep (engineering shortcut over the
/// paper's evaluate-all; the final choice is exact among the kept
/// candidates).  Screening activates only when both the pool exceeds
/// 2*kScreenKeep and T0 exceeds 2*kScreenPrefix.
constexpr std::size_t kScreenPrefix = 128;
constexpr std::size_t kScreenKeep = 8;

}  // namespace

Phase1Result run_phase1(FaultSimulator& fsim, const Sequence& t0,
                        std::span<const atpg::CombTest> comb,
                        std::span<const char> selected,
                        const Phase1Options& options) {
  if (comb.empty()) {
    throw std::invalid_argument("run_phase1: empty combinational test set");
  }
  if (t0.empty()) {
    throw std::invalid_argument("run_phase1: empty test sequence");
  }
  assert(selected.size() == comb.size());

  Phase1Result result;

  // Step 1: faults detected by T0 alone (all-X state, PO observation).
  {
    const obs::Phase step("phase1/step1", "step");
    result.f0 = fsim.detect_no_scan(t0);
  }

  // Step 2: candidate scan-in states are the state parts of C.  Simulate
  // only F - F0: faults in F0 are detected for any scan-in choice.
  {
    const obs::Phase step("phase1/step2", "step");
    FaultSet remaining = fsim.all_faults();
    remaining -= result.f0;

    // Optional screening pass: rank everyone on a prefix of T0, keep the
    // best few for exact evaluation.
    std::vector<std::size_t> pool;
    const bool screen =
        t0.length() > 2 * kScreenPrefix && comb.size() > 2 * kScreenKeep;
    if (screen) {
      const Sequence prefix = t0.subsequence(0, kScreenPrefix - 1);
      // One pattern-parallel batch scores every candidate's prefix
      // coverage.
      std::vector<FaultSimulator::BatchTest> batch(comb.size());
      for (std::size_t j = 0; j < comb.size(); ++j) {
        batch[j] = {&comb[j].state, &prefix};
      }
      const std::vector<FaultSet> dets = fsim.detect_batch(batch, &remaining);
      std::vector<std::pair<std::size_t, std::size_t>> scored;  // (count, j)
      scored.reserve(comb.size());
      for (std::size_t j = 0; j < comb.size(); ++j) {
        scored.emplace_back(dets[j].count(), j);
      }
      std::sort(scored.begin(), scored.end(),
                [&](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  // Prefer unselected candidates into the kept pool on
                  // score ties.
                  if (selected[a.second] != selected[b.second]) {
                    return selected[a.second] < selected[b.second];
                  }
                  return a.second < b.second;
                });
      for (std::size_t k = 0; k < kScreenKeep && k < scored.size(); ++k) {
        pool.push_back(scored[k].second);
      }
    } else {
      pool.resize(comb.size());
      for (std::size_t j = 0; j < comb.size(); ++j) pool[j] = j;
    }

    // Exact evaluation of the kept pool over the full T0, batched the
    // same way.
    std::vector<FaultSimulator::BatchTest> batch(pool.size());
    for (std::size_t k = 0; k < pool.size(); ++k) {
      batch[k] = {&comb[pool[k]].state, &t0};
    }
    std::vector<FaultSet> dets = fsim.detect_batch(batch, &remaining);
    std::size_t best = comb.size();          // overall winner
    std::size_t best_count = 0;
    bool best_selected = false;
    FaultSet best_det(fsim.num_classes());
    for (std::size_t k = 0; k < pool.size(); ++k) {
      const std::size_t j = pool[k];
      FaultSet& det = dets[k];
      const std::size_t count = det.count();
      // Unselected candidates win ties; a selected candidate needs
      // strictly higher coverage to displace an unselected incumbent.
      const bool wins =
          best == comb.size() || count > best_count ||
          (count == best_count && best_selected && !selected[j]);
      if (wins) {
        best = j;
        best_count = count;
        best_selected = selected[j] != 0;
        best_det = std::move(det);
      }
    }
    result.chosen_candidate = best;
    result.chose_selected = best_selected;
    result.f_si = result.f0 | best_det;
  }

  const sim::Vector3& si = comb[result.chosen_candidate].state;

  // Step 3: scan-out time selection from one detection-time recording of
  // (SI, T0) over all faults.  tau_SO,u detects f iff f is PO-detected at
  // some time <= u or the faulty state differs observably after time u.
  const obs::Phase step3("phase1/step3", "step");
  const FaultSet all = fsim.all_faults();
  const auto times = fsim.detection_times(si, t0, all);

  // valid[u] = 1 iff every fault of F_SI is detected by the prefix test
  // ending at u.
  util::Bitset valid(t0.length(), true);
  for (std::size_t k = 0; k < times.targets.size(); ++k) {
    if (!result.f_si.test(times.targets[k])) continue;
    util::Bitset ok = times.state_diff[k];
    if (times.first_po[k] >= 0) {
      for (std::size_t u = static_cast<std::size_t>(times.first_po[k]);
           u < t0.length(); ++u) {
        ok.set(u);
      }
    }
    valid &= ok;
  }
  // The full sequence is always a valid candidate (it detects F_SI by
  // construction) — unless cancellation cut detection_times short, in
  // which case no prefix may be provably valid; the fallback below then
  // keeps u_so in range (the caller discards the round anyway).
  assert(fsim.cancel().stop_requested() || valid.test(t0.length() - 1));

  std::size_t u_so = t0.length() - 1;
  if (options.scan_out_rule == ScanOutRule::EarliestFull) {
    u_so = valid.find_first();
  } else {
    // i1 rule: among valid prefixes, maximize the number of detected
    // faults; break ties toward the smallest u.
    std::size_t best_u = valid.find_first();
    std::size_t best_size = 0;
    for (std::size_t u = valid.find_first(); u < t0.length();
         u = valid.find_next(u + 1)) {
      std::size_t size = 0;
      for (std::size_t k = 0; k < times.targets.size(); ++k) {
        if (times.detected_by_prefix(k, u)) ++size;
      }
      if (size > best_size) {
        best_size = size;
        best_u = u;
      }
    }
    u_so = best_u;
  }
  // find_first() == length() when no prefix is valid (partial records
  // under cancellation); fall back to the full sequence.
  if (u_so >= t0.length()) u_so = t0.length() - 1;
  result.scan_out_time = u_so;

  result.test.scan_in = si;
  result.test.seq = t0.subsequence(0, u_so);
  result.f_so = FaultSet(fsim.num_classes());
  for (std::size_t k = 0; k < times.targets.size(); ++k) {
    if (times.detected_by_prefix(k, u_so)) {
      result.f_so.set(times.targets[k]);
    }
  }
  return result;
}

}  // namespace scanc::tcomp
