#include "tcomp/combine.hpp"

#include <algorithm>
#include <vector>

#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::tcomp {

using fault::FaultSet;
using fault::FaultSimulator;

namespace {

/// Attempts planned and checked together (see Combiner::run).  On
/// s1423 16 simulated the fewest lane-batched pass frames of 8-256:
/// a row's long pairs already share passes, and larger windows
/// discard more speculative lanes at each success.
constexpr std::size_t kWindow = 16;

/// Position of the pair scan: the pair (i, j), tried as (i, j) and then,
/// when j > i, reversed as (j, i).
struct Cursor {
  std::size_t i = 0;
  std::size_t j = 0;
  bool reversed = false;
};

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
    rejected_.assign(tests().size() * tests().size(), Span{});
    // One pattern-parallel batch seeds every test's detection set.
    std::vector<FaultSimulator::BatchTest> batch(tests().size());
    for (std::size_t i = 0; i < tests().size(); ++i) {
      batch[i] = {&tests()[i].scan_in, &tests()[i].seq};
    }
    det_ = fsim.detect_batch(batch);
    for (const FaultSet& d : det_) {
      d.for_each([&](std::size_t f) { ++cnt_[f]; });
    }
    recount();
  }

  CombineResult take() && { return std::move(result_); }

  /// The greedy pair scan.  For every i, every j != i is tried as
  /// (SI_i, T_i . T_j) and, when j > i, as (SI_j, T_j . T_i); a success
  /// replaces slot i, removes slot j and rescans from the same j, and
  /// passes repeat until one makes no combination.  The scan runs in
  /// windows: the next kWindow attempts are planned on the assumption
  /// that all of them fail (which leaves the state they read unchanged),
  /// checked together, and committed in scan order up to and including
  /// the first success; the rest of the window is discarded.  The
  /// result is the sequential scan's, attempt for attempt.
  void run() {
    Cursor cur;
    bool progress = false;
    if (!normalize(cur, progress)) return;
    for (;;) {
      if (!budget_left() || stopping()) return;
      plan(cur, progress);
      check_window();
      bool advanced = false;
      for (std::size_t k = 0; k < window_.size() && !advanced; ++k) {
        Attempt& a = window_[k];
        // The sequential scan polls before each pair, not between its
        // two orders; the budget cannot change before a success.
        if (k > 0 && !a.at.reversed && stopping()) return;
        cur = a.at;
        progress = a.progress;
        ++result_.attempts;
        if (a.memoized) obs::add(obs::Counter::CombineTrialsMemoized);
        if (commit(a)) {
          for (std::size_t r = k + 1; r < window_.size(); ++r) {
            if (window_[r].memoized) continue;
            obs::add(obs::Counter::CombineLanesDiscarded,
                     fault::num_groups(window_[r].essential.count()));
          }
          // Slot j now holds the next test; slot i moved down when j < i.
          if (cur.j < cur.i) --cur.i;
          cur.reversed = false;
          progress = true;
          if (!normalize(cur, progress)) return;
          advanced = true;
        } else if (!advance(cur, progress)) {
          return;
        }
      }
    }
  }

 private:
  /// One planned attempt: tau = (SI_first, T_first . T_second), made
  /// with the scan at `at` and its progress flag at `progress`.
  struct Attempt {
    Cursor at;
    bool progress = false;
    std::size_t first = 0;
    std::size_t second = 0;
    FaultSet essential;     ///< faults only first and second detect
    bool memoized = false;  ///< rejected by the memo, not simulated
    bool ok = false;        ///< the plain coverage check passed
  };

  std::vector<ScanTest>& tests() { return result_.tests.tests; }

  [[nodiscard]] bool budget_left() const {
    return options_.max_combinations == 0 ||
           result_.combinations < options_.max_combinations;
  }

  /// Either cancel token is raised: the scan stops, and checks cut by
  /// the simulator's token read conservatively false.
  [[nodiscard]] bool stopping() const {
    return options_.cancel.stop_requested() ||
           fsim_->cancel().stop_requested();
  }

  /// Moves `c` onto the next pair the scan visits: skips j == i and
  /// wraps rows and passes.  False once a pass ends without progress.
  bool normalize(Cursor& c, bool& progress) {
    const std::size_t n = tests().size();
    for (;;) {
      if (c.j == c.i) ++c.j;
      if (c.j < n) return true;
      c.j = 0;
      if (++c.i < n) continue;
      if (!progress) return false;
      progress = false;
      c.i = 0;
    }
  }

  /// Moves `c` past a failed attempt; false once the scan ends.
  bool advance(Cursor& c, bool& progress) {
    if (!c.reversed && c.j > c.i) {
      c.reversed = true;
      return true;
    }
    c.reversed = false;
    ++c.j;
    return normalize(c, progress);
  }

  /// Fills window_ with the attempts from `c` on, each assuming every
  /// earlier one fails: essential sets and memo verdicts are read from
  /// the current state.
  void plan(Cursor c, bool progress) {
    const std::size_t n = tests().size();
    for (std::size_t k = 0;; ++k) {
      // Entries (and their sets' storage) are reused across windows, so
      // every field is rewritten: a stale `ok` would accept an attempt.
      if (k == window_.size()) window_.emplace_back();
      Attempt& a = window_[k];
      a.at = c;
      a.progress = progress;
      a.ok = false;
      a.first = c.reversed ? c.j : c.i;
      a.second = c.reversed ? c.i : c.j;
      // Essential faults: only these two tests detect them, i.e. one
      // of them alone or both of them and no other.
      const FaultSet& d1 = det_[a.first];
      const FaultSet& d2 = det_[a.second];
      a.essential = d1;
      a.essential |= d2;
      a.essential &= once_;
      both_ = d1;
      both_ &= d2;
      both_ &= twice_;
      a.essential |= both_;
      // The memo (see remember_rejection): a rejected essential set
      // contained in this one fails again.
      const Span r = rejected_[a.first * n + a.second];
      a.memoized = r.size != 0 &&
                   std::all_of(arena_.begin() + r.begin,
                               arena_.begin() + r.begin + r.size,
                               [&](fault::FaultClassId f) {
                                 return a.essential.test(f);
                               });
      if (k + 1 == kWindow || !advance(c, progress)) {
        window_.resize(k + 1);
        return;
      }
    }
  }

  /// Runs the window's unmemoized coverage checks as one batch.
  void check_window() {
    std::vector<sim::Sequence> seqs;
    seqs.reserve(window_.size());
    std::vector<FaultSimulator::Trial> trials;
    std::vector<Attempt*> asked;
    for (Attempt& a : window_) {
      if (a.memoized) continue;
      seqs.push_back(tests()[a.first].seq.concatenated(tests()[a.second].seq));
      trials.push_back({&tests()[a.first].scan_in, &seqs.back(), &a.essential});
      asked.push_back(&a);
    }
    const std::vector<bool> ok = fsim_->detects_all_batch(trials);
    for (std::size_t k = 0; k < asked.size(); ++k) asked[k]->ok = ok[k];
  }

  /// Commits attempt `a` as the sequential scan makes it: the plain
  /// check's verdict, then (on failure, with transfer enabled) the
  /// transfer-sequence search.  On success the combined test replaces
  /// slot at.i and slot at.j is removed.
  bool commit(const Attempt& a) {
    ScanTest combined;
    combined.scan_in = tests()[a.first].scan_in;
    bool ok = a.ok;
    if (!ok && !a.memoized) remember_rejection(a);
    if (!ok && options_.transfer.enabled && !a.essential.none()) {
      ok = try_transfer(a.first, a.second, a.essential, combined);
    } else if (ok) {
      combined.seq = tests()[a.first].seq.concatenated(tests()[a.second].seq);
    }
    if (!ok) return false;

    const std::size_t keep = a.at.i;
    const std::size_t erase = a.at.j;
    FaultSet new_det =
        fsim_->detect_scan_test(combined.scan_in, combined.seq);
    det_[a.first].for_each([&](std::size_t f) { --cnt_[f]; });
    det_[a.second].for_each([&](std::size_t f) { --cnt_[f]; });
    new_det.for_each([&](std::size_t f) { ++cnt_[f]; });
    recount();
    forget(keep, erase);
    tests()[keep] = std::move(combined);
    det_[keep] = std::move(new_det);
    tests().erase(tests().begin() + static_cast<std::ptrdiff_t>(erase));
    det_.erase(det_.begin() + static_cast<std::ptrdiff_t>(erase));
    ++result_.combinations;
    return true;
  }

  /// Refreshes once_ and twice_ from cnt_.
  void recount() {
    once_ = FaultSet(cnt_.size());
    twice_ = FaultSet(cnt_.size());
    for (std::size_t f = 0; f < cnt_.size(); ++f) {
      if (cnt_[f] == 1) once_.set(f);
      if (cnt_[f] == 2) twice_.set(f);
    }
  }

  /// The exact rejection memo.  A simulated rejection of (a, b) with
  /// essential set E means T_a . T_b from SI_a misses some f in E.
  /// While a and b are unchanged the combined test is the same, and
  /// the check of a later essential set E' is a conjunction over E', so
  /// it fails again whenever E ⊆ E'.  E is stored as its class ids in
  /// arena_.  Not recorded under cancellation, where a rejection may be
  /// conservative.
  void remember_rejection(const Attempt& a) {
    if (stopping()) return;
    Span& r = rejected_[a.first * tests().size() + a.second];
    live_ -= r.size;
    r = Span{static_cast<std::uint32_t>(arena_.size()),
             static_cast<std::uint32_t>(a.essential.count())};
    live_ += r.size;
    a.essential.for_each([&](std::size_t f) {
      arena_.push_back(static_cast<fault::FaultClassId>(f));
    });
    compact();
  }

  /// Drops slot `erase`'s memo row and column and clears slot `keep`'s,
  /// whose test is about to change.
  void forget(std::size_t keep, std::size_t erase) {
    const std::size_t n = tests().size();
    std::vector<Span> next;
    next.reserve((n - 1) * (n - 1));
    live_ = 0;
    for (std::size_t a = 0; a < n; ++a) {
      if (a == erase) continue;
      for (std::size_t b = 0; b < n; ++b) {
        if (b == erase) continue;
        const bool kept = a != keep && b != keep;
        next.push_back(kept ? rejected_[a * n + b] : Span{});
        live_ += next.back().size;
      }
    }
    rejected_ = std::move(next);
    compact();
  }

  /// Repacks arena_ once more than half of it is unreferenced.
  void compact() {
    if (arena_.size() <= 2 * live_) return;
    std::vector<fault::FaultClassId> packed;
    packed.reserve(live_);
    for (Span& r : rejected_) {
      const auto from = arena_.begin() + r.begin;
      r.begin = static_cast<std::uint32_t>(packed.size());
      packed.insert(packed.end(), from, from + r.size);
    }
    arena_ = std::move(packed);
  }

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
  std::vector<std::uint32_t> cnt_;  ///< per class: tests detecting it
  FaultSet once_;   ///< classes with cnt_ == 1
  FaultSet twice_;  ///< classes with cnt_ == 2
  FaultSet both_;   ///< plan() scratch
  std::vector<Attempt> window_;
  /// Memo: rejected_[a * n + b] = the essential set with which the plain
  /// check of (a, b) was last rejected by simulation (size 0 = none), as
  /// a span of arena_; live_ = the arena entries still referenced.
  struct Span {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
  };
  std::vector<Span> rejected_;
  std::vector<fault::FaultClassId> arena_;
  std::size_t live_ = 0;
};

}  // namespace

CombineResult combine_tests(FaultSimulator& fsim, const ScanTestSet& set,
                            const CombineOptions& options) {
  if (set.tests.size() <= 1) return CombineResult{set, 0, 0};
  Combiner combiner(fsim, set, options);
  combiner.run();
  return std::move(combiner).take();
}

}  // namespace scanc::tcomp
