#include "tcomp/combine.hpp"

#include <vector>

#include "util/rng.hpp"

namespace scanc::tcomp {

using fault::FaultSet;
using fault::FaultSimulator;

namespace {

/// Mutable compaction state shared by the pair-combination attempts.
class Combiner {
 public:
  Combiner(FaultSimulator& fsim, ScanTestSet set,
           const CombineOptions& options)
      : fsim_(&fsim),
        options_(options),
        rng_(options.transfer.seed ^ 0x7a45fe6ULL),
        result_{std::move(set), 0, 0} {
    cnt_.assign(fsim.num_classes(), 0);
    // One pattern-parallel batch seeds every test's detection set.
    std::vector<FaultSimulator::BatchTest> batch(tests().size());
    for (std::size_t i = 0; i < tests().size(); ++i) {
      batch[i] = {&tests()[i].scan_in, &tests()[i].seq};
    }
    det_ = fsim.detect_batch(batch);
    for (const FaultSet& d : det_) {
      d.for_each([&](std::size_t f) { ++cnt_[f]; });
    }
  }

  std::vector<ScanTest>& tests() { return result_.tests.tests; }

  CombineResult take() && { return std::move(result_); }

  [[nodiscard]] bool budget_left() const {
    return options_.max_combinations == 0 ||
           result_.combinations < options_.max_combinations;
  }

  /// Attempts tau = (SI_first, T_first . [W .] T_second); on success the
  /// combined test replaces slot `keep` and slot `erase` is removed.
  bool attempt(std::size_t first, std::size_t second, std::size_t keep,
               std::size_t erase) {
    ++result_.attempts;
    // Essential faults: only these two tests detect them.
    FaultSet essential = det_[first] | det_[second];
    essential.for_each([&](std::size_t f) {
      const std::uint32_t others =
          cnt_[f] - static_cast<std::uint32_t>(det_[first].test(f)) -
          static_cast<std::uint32_t>(det_[second].test(f));
      if (others > 0) essential.reset(f);
    });

    ScanTest combined;
    combined.scan_in = tests()[first].scan_in;
    combined.seq = tests()[first].seq.concatenated(tests()[second].seq);
    bool ok =
        fsim_->detects_all(combined.scan_in, combined.seq, essential);
    if (!ok && options_.transfer.enabled && !essential.none()) {
      ok = try_transfer(first, second, essential, combined);
    }
    if (!ok) return false;

    FaultSet new_det =
        fsim_->detect_scan_test(combined.scan_in, combined.seq);
    det_[first].for_each([&](std::size_t f) { --cnt_[f]; });
    det_[second].for_each([&](std::size_t f) { --cnt_[f]; });
    new_det.for_each([&](std::size_t f) { ++cnt_[f]; });
    tests()[keep] = std::move(combined);
    det_[keep] = std::move(new_det);
    tests().erase(tests().begin() + static_cast<std::ptrdiff_t>(erase));
    det_.erase(det_.begin() + static_cast<std::ptrdiff_t>(erase));
    ++result_.combinations;
    return true;
  }

 private:
  /// Grows a transfer sequence W between the two halves until every
  /// essential fault is detected or the length/profitability bound hits.
  bool try_transfer(std::size_t first, std::size_t second,
                    const FaultSet& essential, ScanTest& combined) {
    const std::size_t nsv = fsim_->circuit().num_flip_flops();
    const std::size_t num_pis = fsim_->circuit().num_inputs();
    const std::size_t limit =
        nsv == 0 ? 0 : std::min(options_.transfer.max_length, nsv - 1);
    sim::Sequence w;
    while (w.length() < limit) {
      sim::Vector3 best_vec;
      std::size_t best_score = 0;
      bool complete = false;
      for (std::size_t k = 0; k < options_.transfer.candidates; ++k) {
        const sim::Vector3 vec = sim::random_vector(num_pis, rng_);
        sim::Sequence cand = tests()[first].seq.concatenated(w);
        cand.frames.push_back(vec);
        cand = cand.concatenated(tests()[second].seq);
        const FaultSet det = fsim_->detect_scan_test(
            tests()[first].scan_in, cand, &essential);
        const std::size_t score = det.count();
        if (score >= essential.count()) {
          w.frames.push_back(vec);
          complete = true;
          break;
        }
        if (k == 0 || score > best_score) {
          best_score = score;
          best_vec = vec;
        }
      }
      if (complete) {
        combined.seq =
            tests()[first].seq.concatenated(w).concatenated(
                tests()[second].seq);
        return true;
      }
      w.frames.push_back(best_vec);
    }
    return false;
  }

  FaultSimulator* fsim_;
  CombineOptions options_;
  util::Rng rng_;
  CombineResult result_;
  std::vector<FaultSet> det_;
  std::vector<std::uint32_t> cnt_;
};

}  // namespace

CombineResult combine_tests(FaultSimulator& fsim, const ScanTestSet& set,
                            const CombineOptions& options) {
  if (set.tests.size() <= 1) return CombineResult{set, 0, 0};
  Combiner combiner(fsim, set, options);

  bool progress = true;
  while (progress) {
    progress = false;
    auto& tests = combiner.tests();
    for (std::size_t i = 0; i < tests.size(); ++i) {
      for (std::size_t j = 0; j < tests.size();) {
        if (!combiner.budget_left() || options.cancel.stop_requested()) {
          return std::move(combiner).take();
        }
        if (j == i) {
          ++j;
          continue;
        }
        bool combined = combiner.attempt(i, j, i, j);
        if (!combined && j > i) {
          // Both orders are tried: (j, i), stored at slot i so the outer
          // scan stays valid.
          combined = combiner.attempt(j, i, i, j);
        }
        if (combined) {
          progress = true;
          if (j < i) --i;  // erasing below i shifted our slot down
        } else {
          ++j;
        }
      }
    }
  }
  return std::move(combiner).take();
}

}  // namespace scanc::tcomp
