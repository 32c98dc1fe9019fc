#include "tcomp/omission.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <vector>

namespace scanc::tcomp {

using fault::FaultClassId;
using fault::FaultSet;
using fault::FaultSimulator;
using sim::Sequence;

namespace {

/// Sentinel "first detection" for faults detected only at scan-out: any
/// omission can disturb them, so they join every trial.
constexpr std::int64_t kScanOutOnly = std::numeric_limits<std::int64_t>::max();

/// Maximum sweeps at every block size; a sweep that removes nothing ends
/// that block size early.
constexpr std::size_t kMaxPasses = 2;

/// Upper bound on simulated frames across all trials, as a multiple of
/// the initial sequence length.  When the budget runs out the current
/// (already valid) test is returned.
constexpr std::size_t kBudgetFactor = 64;

}  // namespace

OmissionResult omit_vectors(FaultSimulator& fsim, const ScanTest& test,
                            const FaultSet& required) {
  OmissionResult result;
  result.test = test;
  if (test.seq.length() <= 1 || required.none()) return result;

  // Fault order and first-detection times for the current sequence.
  const auto times = fsim.prefix_detection(test.scan_in, test.seq, required);
  assert(times.all_detected());
  const std::size_t nf = times.targets.size();
  std::vector<std::int64_t> first_det(nf);
  for (std::size_t k = 0; k < nf; ++k) {
    first_det[k] =
        times.first_po[k] >= 0 ? times.first_po[k] : kScanOutOnly;
  }

  std::size_t budget = kBudgetFactor * test.seq.length();

  // Initial block size: max(1, L/64) capped at 32.
  std::size_t block = std::clamp<std::size_t>(test.seq.length() / 64, 1, 32);
  for (; block >= 1; block = (block == 1 ? 0 : block / 2)) {
    for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
      std::size_t removed_this_pass = 0;
      // Sweep block start positions from the tail toward the front.
      std::size_t u = result.test.seq.length();
      while (u > 0 && budget > 0) {
        u = (u > block) ? u - block : 0;
        const std::size_t len = result.test.seq.length();
        if (len <= 1) break;
        const std::size_t width = std::min(block, len - u);
        if (width == len) break;  // never empty the sequence

        // Faults whose detection might depend on frames >= u.
        FaultSet affected(fsim.num_classes());
        bool any = false;
        for (std::size_t k = 0; k < nf; ++k) {
          if (first_det[k] >= static_cast<std::int64_t>(u)) {
            affected.set(times.targets[k]);
            any = true;
          }
        }
        const auto erase_block = [&](Sequence& seq) {
          seq.frames.erase(
              seq.frames.begin() + static_cast<std::ptrdiff_t>(u),
              seq.frames.begin() + static_cast<std::ptrdiff_t>(u + width));
        };
        if (!any) {
          // Every detection settles strictly before u and no fault
          // relies on the scan-out: the block is dead weight.
          erase_block(result.test.seq);
          result.omitted += width;
          removed_this_pass += width;
          continue;
        }

        Sequence candidate = result.test.seq;
        erase_block(candidate);
        budget -= std::min(budget, candidate.length());
        const auto trial =
            fsim.prefix_detection(result.test.scan_in, candidate, affected);
        if (!trial.all_detected()) continue;

        // Accept: install the shorter sequence and refresh the detection
        // times of the re-simulated faults (faults detected before u are
        // untouched by construction).
        result.test.seq = std::move(candidate);
        result.omitted += width;
        removed_this_pass += width;
        std::size_t t = 0;
        for (std::size_t k = 0; k < nf; ++k) {
          if (first_det[k] < static_cast<std::int64_t>(u)) continue;
          // FaultSimulator::collect orders every target list by the
          // same fixed (pack rank, class id) key, so trial.targets
          // enumerates `affected` in the relative order of
          // times.targets.
          assert(t < trial.targets.size());
          assert(trial.targets[t] == times.targets[k]);
          first_det[k] = trial.first_po[t] >= 0 ? trial.first_po[t]
                                                : kScanOutOnly;
          ++t;
        }
      }
      if (removed_this_pass == 0 || budget == 0) break;
    }
    if (budget == 0) break;
  }
  return result;
}

}  // namespace scanc::tcomp
