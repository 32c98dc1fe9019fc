#include <gtest/gtest.h>

#include "atpg/comb_tset.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "tcomp/baselines.hpp"
#include "tcomp/combine.hpp"
#include "tcomp/iterate.hpp"
#include "tcomp/omission.hpp"
#include "tcomp/phase1.hpp"
#include "tcomp/pipeline.hpp"
#include "tcomp/restoration.hpp"
#include "tcomp/topoff.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::tcomp {
namespace {

using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;

// Shared fixture pieces: a circuit with its fault list, simulator, comb
// test set and a T0 sequence.
struct Rig {
  Circuit circuit;
  FaultList faults;
  std::unique_ptr<FaultSimulator> fsim;
  atpg::CombTestSet comb;
  sim::Sequence t0;

  explicit Rig(Circuit c, std::uint64_t seed, std::size_t t0_len = 0)
      : circuit(std::move(c)), faults(FaultList::build(circuit)) {
    fsim = std::make_unique<FaultSimulator>(circuit, faults);
    atpg::CombTestSetOptions copt;
    copt.seed = seed;
    comb = atpg::generate_comb_test_set(circuit, faults, copt);
    if (t0_len == 0) {
      tgen::GreedyTgenOptions gopt;
      gopt.seed = seed;
      gopt.max_length = 300;
      t0 = tgen::generate_test_sequence(circuit, faults, gopt).sequence;
    } else {
      t0 = tgen::random_test_sequence(circuit, t0_len, seed);
    }
  }
};

Rig make_rig(std::uint64_t seed, std::size_t gates = 80,
                 std::size_t ffs = 8, std::size_t t0_len = 0) {
  gen::GenParams p;
  p.name = "tc";
  p.seed = seed * 1337 + 11;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = ffs;
  p.num_gates = gates;
  return Rig(gen::generate_circuit(p), seed, t0_len);
}

TEST(Metrics, ClockCyclesFormula) {
  ScanTestSet set;
  EXPECT_EQ(clock_cycles(set, 10), 0u);
  ScanTest a;
  a.scan_in = sim::vector3_from_string("0000000000");
  a.seq.frames.assign(3, sim::Vector3(2, sim::V3::Zero));
  ScanTest b = a;
  b.seq.frames.assign(5, sim::Vector3(2, sim::V3::One));
  set.tests = {a, b};
  // (k+1)*N_SV + sum L = 3*10 + 8 = 38
  EXPECT_EQ(clock_cycles(set, 10), 38u);
}

TEST(Metrics, ClockCyclesFromCounts) {
  // Empty set costs nothing, regardless of the other counts.
  EXPECT_EQ(clock_cycles_from_counts(0, 0, 10), 0u);
  EXPECT_EQ(clock_cycles_from_counts(0, 0, 10, 4), 0u);
  // chains = 0 and chains = 1 both mean a single chain.
  EXPECT_EQ(clock_cycles_from_counts(2, 8, 10, 0),
            clock_cycles_from_counts(2, 8, 10, 1));
  EXPECT_EQ(clock_cycles_from_counts(2, 8, 10), 38u);
  // Multi-chain shift cost is ceil(N_SV / chains): 10 cells on 4 chains
  // shift in 3 cycles, so (2+1)*3 + 8 = 17.
  EXPECT_EQ(clock_cycles_from_counts(2, 8, 10, 4), 17u);
  // The ScanTestSet overloads are exactly the counts helper.
  ScanTestSet set;
  ScanTest t;
  t.seq.frames.assign(5, sim::Vector3(2, sim::V3::Zero));
  set.tests = {t, t, t};
  EXPECT_EQ(clock_cycles(set, 7),
            clock_cycles_from_counts(3, 15, 7));
  EXPECT_EQ(clock_cycles(set, 7, 3),
            clock_cycles_from_counts(3, 15, 7, 3));
}

TEST(Pipeline, ResultCarriesCycleAccounting) {
  Rig s = make_rig(21);
  const PipelineResult r = run_pipeline(*s.fsim, s.t0, s.comb.tests);
  const std::size_t nsv = s.fsim->num_scanned();
  EXPECT_EQ(r.initial_cycles, clock_cycles(r.initial, nsv));
  EXPECT_EQ(r.compacted_cycles, clock_cycles(r.compacted, nsv));
  EXPECT_LE(r.compacted_cycles, r.initial_cycles);
  EXPECT_GT(r.compacted_cycles, 0u);
}

TEST(Metrics, AtSpeedStats) {
  ScanTestSet set;
  ScanTest t;
  t.seq.frames.assign(1, sim::Vector3{});
  set.tests.push_back(t);
  t.seq.frames.assign(7, sim::Vector3{});
  set.tests.push_back(t);
  const AtSpeedStats s = at_speed_stats(set);
  EXPECT_DOUBLE_EQ(s.average, 4.0);
  EXPECT_EQ(s.min_length, 1u);
  EXPECT_EQ(s.max_length, 7u);
}

TEST(Phase1, ContainmentChainHoldsOnS27) {
  Rig s(gen::make_s27(), 3);
  ASSERT_FALSE(s.comb.tests.empty());
  std::vector<char> selected(s.comb.tests.size(), 0);
  const Phase1Result r =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  // F0 <= F_SI <= F_SO (paper Section 3.1).
  EXPECT_TRUE(r.f_si.contains(r.f0));
  EXPECT_TRUE(r.f_so.contains(r.f_si));
  // Reported F_SO must equal an explicit simulation of tau_SO.
  const FaultSet resim = s.fsim->detect_scan_test(r.test.scan_in, r.test.seq);
  EXPECT_EQ(resim, r.f_so);
  // The test is the prefix of T0 ending at the scan-out time.
  EXPECT_EQ(r.test.seq.length(), r.scan_out_time + 1);
  EXPECT_LE(r.test.seq.length(), s.t0.length());
}

TEST(Phase1, EarliestRuleIsMinimal) {
  Rig s(gen::make_s27(), 4);
  std::vector<char> selected(s.comb.tests.size(), 0);
  const Phase1Result r =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  // No strictly shorter prefix may cover F_SI.
  for (std::size_t u = 0; u < r.scan_out_time; ++u) {
    const sim::Sequence prefix = s.t0.subsequence(0, u);
    const FaultSet det =
        s.fsim->detect_scan_test(r.test.scan_in, prefix, &r.f_si);
    EXPECT_FALSE(det.contains(r.f_si)) << "prefix " << u;
  }
}

TEST(Phase1, SelectedCandidatesLoseTies) {
  Rig s(gen::make_s27(), 5);
  ASSERT_GE(s.comb.tests.size(), 2u);
  std::vector<char> selected(s.comb.tests.size(), 0);
  const Phase1Result first =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  selected[first.chosen_candidate] = 1;
  const Phase1Result second =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  if (second.chosen_candidate == first.chosen_candidate) {
    // Re-picking a selected candidate must mean it strictly beats every
    // unselected one; the result reports it as selected.
    EXPECT_TRUE(second.chose_selected);
  } else {
    EXPECT_FALSE(second.chose_selected);
  }
}

TEST(Phase1, I1RuleDetectsAtLeastI0) {
  Rig s(make_rig(6, 90, 8, 120));
  std::vector<char> selected(s.comb.tests.size(), 0);
  Phase1Options i0;
  Phase1Options i1;
  i1.scan_out_rule = ScanOutRule::LargestSet;
  const Phase1Result a =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected, i0);
  const Phase1Result b =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected, i1);
  EXPECT_GE(b.f_so.count(), a.f_so.count());
  // i0 is the minimum valid scan-out time, so i1 can only be later.
  EXPECT_GE(b.scan_out_time, a.scan_out_time);
}

TEST(Phase1, RejectsEmptyInputs) {
  Rig s(gen::make_s27(), 7);
  std::vector<char> selected;
  EXPECT_THROW((void)run_phase1(*s.fsim, s.t0, {}, selected),
               std::invalid_argument);
  std::vector<char> sel2(s.comb.tests.size(), 0);
  EXPECT_THROW((void)run_phase1(*s.fsim, sim::Sequence{}, s.comb.tests, sel2),
               std::invalid_argument);
}

class OmissionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OmissionProperty, PreservesRequiredCoverage) {
  Rig s(make_rig(GetParam(), 70, 6, 80));
  std::vector<char> selected(s.comb.tests.size(), 0);
  const Phase1Result p1 =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  const OmissionResult om = omit_vectors(*s.fsim, p1.test, p1.f_so);
  EXPECT_LE(om.test.seq.length(), p1.test.seq.length());
  EXPECT_EQ(om.test.seq.length() + om.omitted, p1.test.seq.length());
  EXPECT_GE(om.test.seq.length(), 1u);
  const FaultSet det =
      s.fsim->detect_scan_test(om.test.scan_in, om.test.seq);
  EXPECT_TRUE(det.contains(p1.f_so));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OmissionProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

class RestorationProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RestorationProperty, PreservesRequiredCoverage) {
  Rig s(make_rig(GetParam(), 70, 6, 80));
  std::vector<char> selected(s.comb.tests.size(), 0);
  const Phase1Result p1 =
      run_phase1(*s.fsim, s.t0, s.comb.tests, selected);
  const OmissionResult re = restore_vectors(*s.fsim, p1.test, p1.f_so);
  EXPECT_LE(re.test.seq.length(), p1.test.seq.length());
  EXPECT_EQ(re.test.seq.length() + re.omitted, p1.test.seq.length());
  const FaultSet det =
      s.fsim->detect_scan_test(re.test.scan_in, re.test.seq);
  EXPECT_TRUE(det.contains(p1.f_so));

  // Coarser restore steps trade length for speed but stay correct.
  RestorationOptions coarse;
  coarse.restore_step = 8;
  const OmissionResult rc =
      restore_vectors(*s.fsim, p1.test, p1.f_so, coarse);
  const FaultSet det2 =
      s.fsim->detect_scan_test(rc.test.scan_in, rc.test.seq);
  EXPECT_TRUE(det2.contains(p1.f_so));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RestorationProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Restoration, PipelineRunsWithRestorationPhase2) {
  Rig s(make_rig(22, 80, 8, 0));
  PipelineOptions opt;
  opt.iterate.phase2_method = Phase2Method::Restoration;
  const PipelineResult r = run_pipeline(*s.fsim, s.t0, s.comb.tests, opt);
  EXPECT_TRUE(r.final_coverage.contains(r.f_seq));
  EXPECT_TRUE(r.final_coverage.contains(s.comb.detected));
}

TEST(Omission, LengthOneSequenceUntouched) {
  Rig s(gen::make_s27(), 8);
  ScanTest t;
  t.scan_in = s.comb.tests[0].state;
  t.seq.frames.push_back(s.comb.tests[0].inputs);
  const FaultSet req = s.fsim->detect_scan_test(t.scan_in, t.seq);
  const OmissionResult om = omit_vectors(*s.fsim, t, req);
  EXPECT_EQ(om.omitted, 0u);
  EXPECT_EQ(om.test.seq.length(), 1u);
}

TEST(Iterate, CoverageNeverDecreasesAcrossIterations) {
  Rig s(make_rig(9, 100, 10, 150));
  const IterateResult r = iterate_phases(*s.fsim, s.t0, s.comb.tests);
  ASSERT_FALSE(r.iterations.empty());
  EXPECT_LE(r.iterations.size(), s.comb.tests.size());
  // The kept tau_seq achieves the best observed coverage.
  std::size_t best = 0;
  for (const IterationRecord& it : r.iterations) {
    best = std::max(best, it.detected);
  }
  EXPECT_EQ(r.f_seq.count(), best);
  // tau_seq's reported coverage is accurate.
  const FaultSet det =
      s.fsim->detect_scan_test(r.tau_seq.scan_in, r.tau_seq.seq);
  EXPECT_EQ(det, r.f_seq);
  // And it dominates the no-scan coverage of T0.
  EXPECT_GE(r.f_seq.count(), r.f0.count());
}

TEST(TopOff, CoversEverythingCoverable) {
  Rig s(make_rig(10, 80, 8, 0));
  // Pretend nothing is detected yet: top-off must reach C's coverage.
  FaultSet undetected = s.fsim->all_faults();
  const TopOffResult r = top_off(*s.fsim, s.comb.tests, undetected);
  FaultSet covered(s.fsim->num_classes());
  for (const ScanTest& t : r.tests.tests) {
    covered |= s.fsim->detect_scan_test(t.scan_in, t.seq);
  }
  FaultSet want = s.comb.detected;
  EXPECT_TRUE(covered.contains(want));
  // uncoverable = all faults minus C's coverage.
  FaultSet expect_unc = s.fsim->all_faults();
  expect_unc -= s.comb.detected;
  EXPECT_EQ(r.uncoverable, expect_unc);
  // All tests have length-one sequences.
  for (const ScanTest& t : r.tests.tests) EXPECT_EQ(t.seq.length(), 1u);
}

TEST(TopOff, EmptyTargetSelectsNothing) {
  Rig s(gen::make_s27(), 11);
  const TopOffResult r =
      top_off(*s.fsim, s.comb.tests, FaultSet(s.fsim->num_classes()));
  EXPECT_TRUE(r.tests.empty());
  EXPECT_TRUE(r.uncoverable.none());
}

TEST(TopOff, EssentialTestIsSelected) {
  // Craft candidates where one fault is detected by exactly one test:
  // that test must appear in the selection.
  Rig s(gen::make_s27(), 12);
  FaultSet undetected = s.fsim->all_faults();
  const TopOffResult r = top_off(*s.fsim, s.comb.tests, undetected);
  // Compute per-fault detection counts to find essential tests.
  std::vector<FaultSet> dets;
  for (const auto& c : s.comb.tests) {
    dets.push_back(atpg::detect_comb_test(*s.fsim, c, &undetected));
  }
  for (std::size_t j = 0; j < s.comb.tests.size(); ++j) {
    bool essential = false;
    dets[j].for_each([&](std::size_t f) {
      std::size_t n = 0;
      for (const auto& d : dets) n += d.test(f);
      if (n == 1) essential = true;
    });
    if (essential) {
      EXPECT_NE(std::find(r.chosen.begin(), r.chosen.end(), j),
                r.chosen.end())
          << "essential test " << j << " not selected";
    }
  }
}

class CombineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CombineProperty, PreservesCoverageAndReducesCycles) {
  Rig s(make_rig(GetParam(), 70, 7, 0));
  const ScanTestSet initial = comb_initial_set(s.comb.tests);
  const FaultSet before = coverage(*s.fsim, initial);
  const CombineResult r = combine_tests(*s.fsim, initial);
  const FaultSet after = coverage(*s.fsim, r.tests);
  EXPECT_TRUE(after.contains(before));
  EXPECT_EQ(r.tests.size() + r.combinations, initial.size());
  EXPECT_LE(clock_cycles(r.tests, s.circuit.num_flip_flops()),
            clock_cycles(initial, s.circuit.num_flip_flops()));
  // Total vector count is invariant under combining.
  EXPECT_EQ(r.tests.total_vectors(), initial.total_vectors());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CombineProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(Combine, SingleTestSetIsFixedPoint) {
  Rig s(gen::make_s27(), 13);
  ScanTestSet set;
  ScanTest t;
  t.scan_in = s.comb.tests[0].state;
  t.seq.frames.push_back(s.comb.tests[0].inputs);
  set.tests.push_back(t);
  const CombineResult r = combine_tests(*s.fsim, set);
  EXPECT_EQ(r.tests.size(), 1u);
  EXPECT_EQ(r.combinations, 0u);
}

TEST(Combine, TransferSequencesEnableMoreCombinations) {
  // With transfer sequences enabled, the combiner may only do better
  // (same or more combinations), must still preserve coverage, and every
  // inserted transfer sequence must stay shorter than N_SV.
  Rig s(make_rig(31, 90, 9, 0));
  const ScanTestSet initial = comb_initial_set(s.comb.tests);
  const FaultSet before = coverage(*s.fsim, initial);

  CombineOptions plain;
  const CombineResult a = combine_tests(*s.fsim, initial, plain);

  CombineOptions with_transfer;
  with_transfer.transfer.enabled = true;
  const CombineResult b = combine_tests(*s.fsim, initial, with_transfer);

  EXPECT_GE(b.combinations, a.combinations);
  EXPECT_TRUE(coverage(*s.fsim, b.tests).contains(before));
  // Total vectors grew by at most (transfer length) per combination and
  // every test's sequence is a concatenation of length-1 tests plus
  // transfers < N_SV.
  const std::size_t nsv = s.circuit.num_flip_flops();
  EXPECT_LE(b.tests.total_vectors(),
            initial.total_vectors() + b.combinations * (nsv - 1));
}

TEST(Combine, MaxCombinationsRespected) {
  Rig s(make_rig(14, 70, 7, 0));
  const ScanTestSet initial = comb_initial_set(s.comb.tests);
  CombineOptions opt;
  opt.max_combinations = 1;
  const CombineResult r = combine_tests(*s.fsim, initial, opt);
  EXPECT_LE(r.combinations, 1u);
}

// The sequential pair scan combine_tests ran before it checked attempts
// in windows and kept a rejection memo: one detects_all per attempt,
// in loop order.  combine_tests must reproduce it attempt for attempt.
struct ReferenceCombiner {
  ReferenceCombiner(FaultSimulator& f, const CombineOptions& o)
      : fsim(f), options(o), rng(o.transfer.seed ^ 0x7a45fe6ULL) {}

  FaultSimulator& fsim;
  CombineOptions options;
  util::Rng rng;
  CombineResult result;
  std::vector<FaultSet> det;
  std::vector<std::uint32_t> cnt;

  std::vector<ScanTest>& tests() { return result.tests.tests; }

  bool transfer(std::size_t first, std::size_t second,
                const FaultSet& essential, ScanTest& combined) {
    const std::size_t nsv = fsim.circuit().num_flip_flops();
    const std::size_t limit =
        nsv == 0 ? 0 : std::min(options.transfer.max_length, nsv - 1);
    sim::Sequence w;
    while (w.length() < limit) {
      sim::Vector3 best_vec;
      std::size_t best_score = 0;
      for (std::size_t k = 0; k < options.transfer.candidates; ++k) {
        const sim::Vector3 vec =
            sim::random_vector(fsim.circuit().num_inputs(), rng);
        sim::Sequence cand = tests()[first].seq.concatenated(w);
        cand.frames.push_back(vec);
        cand = cand.concatenated(tests()[second].seq);
        const std::size_t score =
            fsim.detect_scan_test(tests()[first].scan_in, cand, &essential)
                .count();
        if (score >= essential.count()) {
          w.frames.push_back(vec);
          combined.seq = tests()[first].seq.concatenated(w).concatenated(
              tests()[second].seq);
          return true;
        }
        if (k == 0 || score > best_score) {
          best_score = score;
          best_vec = vec;
        }
      }
      w.frames.push_back(best_vec);
    }
    return false;
  }

  bool attempt(std::size_t first, std::size_t second, std::size_t keep,
               std::size_t erase) {
    ++result.attempts;
    FaultSet essential = det[first] | det[second];
    essential.for_each([&](std::size_t f) {
      const std::uint32_t others =
          cnt[f] - static_cast<std::uint32_t>(det[first].test(f)) -
          static_cast<std::uint32_t>(det[second].test(f));
      if (others > 0) essential.reset(f);
    });
    ScanTest combined;
    combined.scan_in = tests()[first].scan_in;
    combined.seq = tests()[first].seq.concatenated(tests()[second].seq);
    bool ok = fsim.detects_all(combined.scan_in, combined.seq, essential);
    if (!ok && options.transfer.enabled && !essential.none()) {
      ok = transfer(first, second, essential, combined);
    }
    if (!ok) return false;
    const FaultSet nd = fsim.detect_scan_test(combined.scan_in, combined.seq);
    det[first].for_each([&](std::size_t f) { --cnt[f]; });
    det[second].for_each([&](std::size_t f) { --cnt[f]; });
    nd.for_each([&](std::size_t f) { ++cnt[f]; });
    tests()[keep] = std::move(combined);
    det[keep] = nd;
    tests().erase(tests().begin() + static_cast<std::ptrdiff_t>(erase));
    det.erase(det.begin() + static_cast<std::ptrdiff_t>(erase));
    ++result.combinations;
    return true;
  }

  CombineResult run(const ScanTestSet& set) {
    result = CombineResult{set, 0, 0};
    if (set.tests.size() <= 1) return result;
    cnt.assign(fsim.num_classes(), 0);
    for (const ScanTest& t : tests()) {
      det.push_back(fsim.detect_scan_test(t.scan_in, t.seq));
      det.back().for_each([&](std::size_t f) { ++cnt[f]; });
    }
    for (bool progress = true; progress;) {
      progress = false;
      for (std::size_t i = 0; i < tests().size(); ++i) {
        for (std::size_t j = 0; j < tests().size();) {
          if (options.max_combinations != 0 &&
              result.combinations >= options.max_combinations) {
            return result;
          }
          if (j == i) {
            ++j;
            continue;
          }
          bool combined = attempt(i, j, i, j);
          if (!combined && j > i) combined = attempt(j, i, i, j);
          if (combined) {
            progress = true;
            if (j < i) --i;
          } else {
            ++j;
          }
        }
      }
    }
    return result;
  }
};

struct CombineEquivCase {
  std::uint64_t seed;
  bool transition;
  bool transfer;
  std::size_t max_combinations;
  sim::LaneWidth lanes;
};

class CombineEquivalence
    : public ::testing::TestWithParam<CombineEquivCase> {};

TEST_P(CombineEquivalence, MatchesTheSequentialScan) {
  const CombineEquivCase& c = GetParam();
  Rig s(make_rig(c.seed, 120, 8, 0));
  const FaultList faults = FaultList::build(
      s.circuit, c.transition ? fault::FaultModel::transition()
                              : fault::FaultModel::stuck_at());
  FaultSimulator fsim(s.circuit, faults);
  fsim.set_lane_width(c.lanes);
  // One-vector tests plus a few long ones, so windows mix short and
  // long trials and essential sets span more than one group.
  ScanTestSet initial = comb_initial_set(s.comb.tests);
  util::Rng rng(c.seed * 7919 + 3);
  for (std::size_t k = 0; k < 3 && s.t0.length() > 1; ++k) {
    ScanTest t;
    t.scan_in = sim::random_vector(s.circuit.num_flip_flops(), rng);
    t.seq = s.t0.subsequence(0, rng.below(s.t0.length()));
    initial.tests.insert(initial.tests.begin() +
                             static_cast<std::ptrdiff_t>(
                                 rng.below(initial.tests.size() + 1)),
                         t);
  }
  CombineOptions opt;
  opt.max_combinations = c.max_combinations;
  opt.transfer.enabled = c.transfer;
  opt.transfer.seed = c.seed;

  FaultSimulator ref_sim(s.circuit, faults);
  ref_sim.set_lane_width(sim::LaneWidth::W64);
  const CombineResult want = ReferenceCombiner(ref_sim, opt).run(initial);
  const std::uint64_t memo_before =
      obs::value(obs::Counter::CombineTrialsMemoized);
  const CombineResult got = combine_tests(fsim, initial, opt);
  // Later passes revisit rejected pairs, so the memo answers some.
  if (c.max_combinations == 0) {
    EXPECT_GT(obs::value(obs::Counter::CombineTrialsMemoized), memo_before);
  }
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.combinations, want.combinations);
  ASSERT_EQ(got.tests.size(), want.tests.size());
  for (std::size_t i = 0; i < got.tests.size(); ++i) {
    EXPECT_EQ(got.tests.tests[i].scan_in, want.tests.tests[i].scan_in);
    EXPECT_EQ(got.tests.tests[i].seq, want.tests.tests[i].seq) << i;
  }
}

std::vector<CombineEquivCase> combine_equiv_cases() {
  std::vector<CombineEquivCase> out;
  for (const bool tdf : {false, true}) {
    for (const bool transfer : {false, true}) {
      for (const std::size_t budget : {std::size_t{0}, std::size_t{1}}) {
        for (const sim::LaneWidth lw :
             {sim::LaneWidth::Auto, sim::LaneWidth::W64}) {
          out.push_back({out.size() % 3 + 2, tdf, transfer, budget, lw});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CombineEquivalence,
                         ::testing::ValuesIn(combine_equiv_cases()));

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, EndToEndInvariants) {
  Rig s(make_rig(GetParam(), 90, 9, 0));
  const PipelineResult r =
      run_pipeline(*s.fsim, s.t0, s.comb.tests);

  // Final coverage is complete for everything tau_seq or C can detect.
  FaultSet want = r.f_seq | s.comb.detected;
  EXPECT_TRUE(r.final_coverage.contains(want));

  // Compaction cannot increase the test application time.
  const std::size_t nsv = s.circuit.num_flip_flops();
  EXPECT_LE(clock_cycles(r.compacted, nsv), clock_cycles(r.initial, nsv));

  // Test-set structure: initial = {tau_seq} + added length-one tests.
  ASSERT_GE(r.initial.size(), 1u);
  EXPECT_EQ(r.initial.size(), 1 + r.added_tests);
  EXPECT_EQ(r.initial.tests[0].seq, r.tau_seq.seq);
  for (std::size_t i = 1; i < r.initial.size(); ++i) {
    EXPECT_EQ(r.initial.tests[i].seq.length(), 1u);
  }

  // Count monotonicity across the iterated phases (set containment of
  // the original F0 is not guaranteed once later iterations re-select the
  // scan-in state — only the count can never drop, as in Table 1).
  EXPECT_GE(r.f_seq.count(), r.f0.count());
  EXPECT_TRUE(r.final_coverage.contains(r.f_seq));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

TEST(Pipeline, Phase4AblationKeepsInitialSet) {
  Rig s(make_rig(20, 80, 8, 0));
  PipelineOptions opt;
  opt.run_phase4 = false;
  const PipelineResult r = run_pipeline(*s.fsim, s.t0, s.comb.tests, opt);
  EXPECT_EQ(r.compacted.size(), r.initial.size());
  EXPECT_EQ(r.combinations, 0u);
}

TEST(Baselines, CombInitialSetShape) {
  Rig s(gen::make_s27(), 15);
  const ScanTestSet set = comb_initial_set(s.comb.tests);
  ASSERT_EQ(set.size(), s.comb.tests.size());
  for (std::size_t j = 0; j < set.size(); ++j) {
    EXPECT_EQ(set.tests[j].seq.length(), 1u);
    EXPECT_EQ(set.tests[j].scan_in, s.comb.tests[j].state);
  }
  // Cycles = (K+1) * N_SV + K.
  EXPECT_EQ(clock_cycles(set, s.circuit.num_flip_flops()),
            (set.size() + 1) * s.circuit.num_flip_flops() + set.size());
}

TEST(Baselines, DynamicBaselineCoversTarget) {
  Rig s(make_rig(16, 80, 8, 0));
  const FaultSet target = s.comb.detected;
  const ScanTestSet set =
      dynamic_baseline(*s.fsim, s.comb.tests, target);
  const FaultSet cov = coverage(*s.fsim, set);
  EXPECT_TRUE(cov.contains(target));
  const std::size_t nsv = s.circuit.num_flip_flops();
  for (const ScanTest& t : set.tests) {
    EXPECT_GE(t.seq.length(), 1u);
    EXPECT_LE(t.seq.length(), std::max<std::size_t>(nsv, 1));
  }
}

}  // namespace
}  // namespace scanc::tcomp
