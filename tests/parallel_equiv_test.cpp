// Randomized equivalence suite for the parallel fault-group execution
// layer and the simulation kernels: every FaultSimulator query must
// return bit-identical results for num_threads = 1 (serial, no pool)
// and num_threads = N (worker pool), and for every lane width (scalar
// 64-bit vs the default and the 256/512-bit wide engine, intrinsic or
// portable), across
// generated circuits under full- and partial-scan masks.  The
// pattern-parallel batch query (detect_batch) must match its per-test
// scalar answers element for element, including ragged final lane
// chunks.  This is the determinism guarantee
// documented in docs/execution.md, pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "sim/seq_sim.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {
namespace {

using sim::Sequence;
using sim::Vector3;

std::size_t parallel_threads() {
  // Exceeding the core count is fine: the point is exercising the pool
  // path, worker-local engines, and the group partitioning.
  return std::max<std::size_t>(4, std::thread::hardware_concurrency());
}

struct Case {
  std::uint64_t seed;
  bool partial_scan;
  bool tdf = false;  ///< run under the transition-delay fault model
};

class ParallelEquivalence : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case& c = GetParam();
    gen::GenParams p;
    p.name = "equiv";
    p.seed = c.seed;
    p.num_inputs = 6;
    p.num_outputs = 5;
    p.num_flip_flops = 12;
    p.num_gates = 220;  // a few hundred classes -> several fault groups
    circuit_ = gen::generate_circuit(p);
    faults_ = FaultList::build(*circuit_, c.tdf ? FaultModel::transition()
                                                : FaultModel::stuck_at());
    scan_mask_ = util::Bitset(circuit_->num_flip_flops(), true);
    if (c.partial_scan) {
      util::Rng rng(c.seed * 131 + 7);
      for (std::size_t i = 0; i < scan_mask_.size(); ++i) {
        if (rng.below(3) == 0) scan_mask_.reset(i);
      }
      if (scan_mask_.none()) scan_mask_.set(0);
    }
    serial_.emplace(*circuit_, *faults_, scan_mask_);
    serial_->set_num_threads(1);
    // The reference runs the scalar 64-bit kernels; the wide
    // configurations below must match it bit for bit.
    serial_->set_lane_width(sim::LaneWidth::W64);
    // Default lanes under the pool.
    parallel_.emplace(*circuit_, *faults_, scan_mask_);
    parallel_->set_num_threads(parallel_threads());
    // Wide-lane simulators: 256-bit serial and 512-bit under the pool.
    // Where the CPU lacks the intrinsics these resolve to the portable
    // WideWord implementation at the same width — equally valid, the
    // contract is width-independent bit-identity.
    wide256_.emplace(*circuit_, *faults_, scan_mask_);
    wide256_->set_num_threads(1);
    wide256_->set_lane_width(sim::LaneWidth::W256);
    wide512_.emplace(*circuit_, *faults_, scan_mask_);
    wide512_->set_num_threads(parallel_threads());
    wide512_->set_lane_width(sim::LaneWidth::W512);

    util::Rng rng(c.seed * 977 + 13);
    seq_ = tgen::random_test_sequence(*circuit_, 48, c.seed * 3 + 1);
    scan_in_ = sim::random_vector(circuit_->num_flip_flops(), rng);
    targets_ = util::Bitset(faults_->num_classes());
    for (std::size_t i = 0; i < targets_.size(); ++i) {
      if (rng.below(2) == 0) targets_.set(i);
    }
    if (targets_.none()) targets_.set(faults_->num_classes() / 2);
    one_group_ = first_group(targets_);
  }

  /// The first <= kGroupSize members of `from`: a one-group target set.
  /// The random targets above always span several groups, so this is
  /// the input that sends every simulator, whatever its width, to the
  /// one-lane plan.
  static FaultSet first_group(const FaultSet& from) {
    FaultSet out(from.size());
    std::size_t n = 0;
    from.for_each([&](std::size_t i) {
      if (n++ < kGroupSize) out.set(i);
    });
    return out;
  }

  /// The simulators that must agree with `serial_` (scalar lanes) on
  /// every query.
  std::vector<FaultSimulator*> others() {
    return {&*parallel_, &*wide256_, &*wide512_};
  }

  /// Pattern-parallel batch material: `n` tests with random scan-in
  /// states and ragged sequence lengths (prefixes of seq_), so a batch
  /// spans several lane chunks and ends on a partial one.
  struct BatchMaterial {
    std::vector<Vector3> scan_ins;
    std::vector<Sequence> seqs;
    std::vector<FaultSimulator::BatchTest> batch;
  };
  BatchMaterial make_batch(std::size_t n) {
    BatchMaterial m;
    util::Rng rng(GetParam().seed * 2654435761ULL + 99);
    m.scan_ins.reserve(n);
    m.seqs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      m.scan_ins.push_back(
          sim::random_vector(circuit_->num_flip_flops(), rng));
      m.seqs.push_back(seq_.subsequence(0, rng.below(seq_.length())));
    }
    m.batch.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      m.batch[i] = {&m.scan_ins[i], &m.seqs[i]};
    }
    return m;
  }

  /// Under either fault model with >= 2 target groups the per-group
  /// queries take the wide fault-parallel pass on every simulator but
  /// serial_: the pass counter must rise, so the comparison really is
  /// wide vs scalar.
  void expect_wide_passes_since(std::uint64_t before) const {
    if (num_groups(targets_.count()) < 2) return;
    EXPECT_GT(obs::value(obs::Counter::WideFpPasses), before);
  }

  /// Runs `leg` on every simulator of others() and checks that it ran no
  /// wide pass: a one-group query takes the one-lane plan on every
  /// width, so the wide simulators are compared with serial_ on the
  /// one-lane engine.
  template <class Leg>
  void expect_one_lane_leg(Leg leg) {
    ASSERT_EQ(num_groups(one_group_.count()), 1u);
    const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
    for (FaultSimulator* other : others()) leg(*other);
    EXPECT_EQ(obs::value(obs::Counter::WideFpPasses), passes);
  }

  std::optional<netlist::Circuit> circuit_;
  std::optional<FaultList> faults_;
  util::Bitset scan_mask_;
  std::optional<FaultSimulator> serial_;
  std::optional<FaultSimulator> parallel_;
  std::optional<FaultSimulator> wide256_;
  std::optional<FaultSimulator> wide512_;
  Sequence seq_;
  Vector3 scan_in_;
  FaultSet targets_;
  FaultSet one_group_;  ///< first_group(targets_)
};

TEST_P(ParallelEquivalence, DetectNoScan) {
  const FaultSet all = serial_->detect_no_scan(seq_);
  const FaultSet sub = serial_->detect_no_scan(seq_, &targets_);
  const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
  for (FaultSimulator* other : others()) {
    EXPECT_EQ(all, other->detect_no_scan(seq_));
    EXPECT_EQ(sub, other->detect_no_scan(seq_, &targets_));
  }
  expect_wide_passes_since(passes);
  const FaultSet one = serial_->detect_no_scan(seq_, &one_group_);
  expect_one_lane_leg([&](FaultSimulator& other) {
    EXPECT_EQ(one, other.detect_no_scan(seq_, &one_group_));
  });
}

TEST_P(ParallelEquivalence, DetectScanTest) {
  const FaultSet all = serial_->detect_scan_test(scan_in_, seq_);
  const FaultSet sub = serial_->detect_scan_test(scan_in_, seq_, &targets_);
  const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
  for (FaultSimulator* other : others()) {
    EXPECT_EQ(all, other->detect_scan_test(scan_in_, seq_));
    EXPECT_EQ(sub, other->detect_scan_test(scan_in_, seq_, &targets_));
  }
  expect_wide_passes_since(passes);
  const FaultSet one = serial_->detect_scan_test(scan_in_, seq_, &one_group_);
  expect_one_lane_leg([&](FaultSimulator& other) {
    EXPECT_EQ(one, other.detect_scan_test(scan_in_, seq_, &one_group_));
  });
}

TEST_P(ParallelEquivalence, SessionSteps) {
  // An incremental session over the targets, stepped through seq_ with
  // a snapshot/restore detour halfway: every step's new detections and
  // latched effects, and the detected sets, must match the scalar
  // session on every width (under transition faults the wide sessions
  // pack lanes() launching groups per frame), and the detected set must
  // equal detect_no_scan's.
  const std::size_t cut = seq_.length() / 2;
  const auto run = [&](FaultSimulator& fsim) {
    std::vector<std::size_t> trail;
    FaultSimulator::Session s(fsim, targets_);
    for (std::size_t t = 0; t < seq_.length(); ++t) {
      if (t == cut) {
        const auto snap = s.snapshot();
        for (std::size_t u = 0; u < 3; ++u) s.step(seq_.frames[u]);
        s.restore(snap);
      }
      trail.push_back(s.step(seq_.frames[t]));
      trail.push_back(s.latched_effects());
    }
    return std::make_pair(trail, s.detected());
  };
  const auto want = run(*serial_);
  EXPECT_GT(want.second.count(), 0u);
  // Every width's session runs on the batch engine; the per-group
  // query passes are the independent reference.
  EXPECT_EQ(want.second, serial_->detect_no_scan(seq_, &targets_));
  for (FaultSimulator* other : others()) {
    const auto got = run(*other);
    EXPECT_EQ(want.first, got.first);
    EXPECT_EQ(want.second, got.second);
  }
}

TEST_P(ParallelEquivalence, DetectionTimes) {
  const auto a = serial_->detection_times(scan_in_, seq_, targets_);
  const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
  for (FaultSimulator* other : others()) {
    const auto b = other->detection_times(scan_in_, seq_, targets_);
    ASSERT_EQ(a.targets, b.targets);
    EXPECT_EQ(a.first_po, b.first_po);
    ASSERT_EQ(a.state_diff.size(), b.state_diff.size());
    for (std::size_t i = 0; i < a.state_diff.size(); ++i) {
      EXPECT_EQ(a.state_diff[i], b.state_diff[i]) << "target " << i;
    }
  }
  expect_wide_passes_since(passes);
  const auto one = serial_->detection_times(scan_in_, seq_, one_group_);
  expect_one_lane_leg([&](FaultSimulator& other) {
    const auto b = other.detection_times(scan_in_, seq_, one_group_);
    EXPECT_EQ(one.targets, b.targets);
    EXPECT_EQ(one.first_po, b.first_po);
    EXPECT_EQ(one.state_diff, b.state_diff);
  });
}

TEST_P(ParallelEquivalence, PrefixDetection) {
  const auto a = serial_->prefix_detection(scan_in_, seq_, targets_);
  const std::uint64_t passes = obs::value(obs::Counter::WideFpPasses);
  for (FaultSimulator* other : others()) {
    const auto b = other->prefix_detection(scan_in_, seq_, targets_);
    ASSERT_EQ(a.targets, b.targets);
    EXPECT_EQ(a.first_po, b.first_po);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.all_detected(), b.all_detected());
  }
  expect_wide_passes_since(passes);
  const auto one = serial_->prefix_detection(scan_in_, seq_, one_group_);
  expect_one_lane_leg([&](FaultSimulator& other) {
    const auto b = other.prefix_detection(scan_in_, seq_, one_group_);
    EXPECT_EQ(one.targets, b.targets);
    EXPECT_EQ(one.first_po, b.first_po);
    EXPECT_EQ(one.detected, b.detected);
  });
}

TEST_P(ParallelEquivalence, DetectsAllBatch) {
  // A window of trials: ragged lengths (prefixes of seq_ and seq_
  // doubled), required sets of 1-3 groups that the trial's test detects
  // entirely or misses by one class, and duplicates.  Entry k must equal
  // detects_all on trial k at W64 (the per-trial path) and at every
  // wide width (the lane-batched pass, chunked and ragged).
  util::Rng rng(GetParam().seed * 40503 + 17);
  const std::size_t n = 14;
  std::vector<Vector3> scan_ins;
  std::vector<Sequence> seqs;
  std::vector<FaultSet> required;
  scan_ins.reserve(n);
  seqs.reserve(n);
  required.reserve(n);
  std::vector<FaultSimulator::Trial> trials;
  std::vector<bool> want;
  const Sequence twice = seq_.concatenated(seq_);
  for (std::size_t k = 0; k < n; ++k) {
    if (k % 5 == 4) {  // a duplicate of an earlier trial
      const std::size_t d = rng.below(k);
      trials.push_back(trials[d]);
      want.push_back(want[d]);
      continue;
    }
    scan_ins.push_back(sim::random_vector(circuit_->num_flip_flops(), rng));
    seqs.push_back(k % 3 == 0 ? twice
                              : seq_.subsequence(0, rng.below(seq_.length())));
    const FaultSet det =
        serial_->detect_scan_test(scan_ins.back(), seqs.back());
    const std::size_t quota = (1 + k % 3) * kGroupSize;
    const std::size_t have = det.count();
    FaultSet r(det.size());
    det.for_each([&](std::size_t f) {
      if (have <= quota || rng.below(have) < quota) r.set(f);
    });
    if (k % 2 == 1 && !det.all()) {
      for (std::size_t f = rng.below(det.size());; f = (f + 1) % det.size()) {
        if (!det.test(f)) {
          r.set(f);
          break;
        }
      }
    }
    required.push_back(std::move(r));
    trials.push_back({&scan_ins.back(), &seqs.back(), &required.back()});
    want.push_back(
        serial_->detects_all(scan_ins.back(), seqs.back(), required.back()));
  }
  ASSERT_NE(std::count(want.begin(), want.end(), true), 0);
  ASSERT_NE(std::count(want.begin(), want.end(), false), 0);
  std::vector<FaultSimulator*> sims = others();
  sims.push_back(&*serial_);
  for (FaultSimulator* s : sims) {
    const std::vector<bool> got = s->detects_all_batch(trials);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k], want[k]) << "trial " << k;
    }
  }
}

TEST_P(ParallelEquivalence, DetectsAll) {
  // A set the test provably covers (true case, exercises the
  // cooperative-cancellation path trivially) ...
  const FaultSet covered = serial_->detect_scan_test(scan_in_, seq_);
  // ... and the full universe (false on any realistic circuit, so the
  // "all satisfied so far" flag actually flips under the pool).
  const FaultSet all = serial_->all_faults();
  const bool all_covered = serial_->detects_all(scan_in_, seq_, all);
  for (FaultSimulator* other : others()) {
    if (!covered.none()) {
      EXPECT_TRUE(other->detects_all(scan_in_, seq_, covered));
    }
    EXPECT_EQ(all_covered, other->detects_all(scan_in_, seq_, all));
  }
  if (!covered.none()) {
    EXPECT_TRUE(serial_->detects_all(scan_in_, seq_, covered));
  }
  // One group: a covered set (true) and the first group of the
  // universe (false unless the test detects all of it).
  const FaultSet one_covered = first_group(covered);
  const FaultSet one_all = first_group(all);
  const bool one_all_covered = serial_->detects_all(scan_in_, seq_, one_all);
  expect_one_lane_leg([&](FaultSimulator& other) {
    if (!one_covered.none()) {
      EXPECT_TRUE(other.detects_all(scan_in_, seq_, one_covered));
    }
    EXPECT_EQ(one_all_covered, other.detects_all(scan_in_, seq_, one_all));
  });
}

TEST_P(ParallelEquivalence, BatchDetect) {
  // 10 tests > 8 lanes: the 512-bit engine takes one full chunk plus a
  // ragged chunk of 2; every element must equal its per-test answer.
  const BatchMaterial m = make_batch(10);
  std::vector<FaultSet> want;
  want.reserve(m.batch.size());
  for (std::size_t i = 0; i < m.batch.size(); ++i) {
    want.push_back(
        serial_->detect_scan_test(m.scan_ins[i], m.seqs[i], &targets_));
  }
  std::vector<FaultSimulator*> sims = others();
  sims.push_back(&*serial_);  // W64: the per-test fallback inside the API
  for (FaultSimulator* s : sims) {
    const std::vector<FaultSet> got = s->detect_batch(m.batch, &targets_);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i], got[i]) << "test " << i;
    }
  }
}

TEST_P(ParallelEquivalence, BatchTimes) {
  // detection_times over the batch material: every mode answers each
  // ragged test exactly as the serial simulator does, query after query
  // on one simulator (no query's trace outlives it).
  const BatchMaterial m = make_batch(9);
  for (FaultSimulator* s : others()) {
    for (std::size_t i = 0; i < m.batch.size(); ++i) {
      const auto want =
          serial_->detection_times(m.scan_ins[i], m.seqs[i], targets_);
      const auto got = s->detection_times(m.scan_ins[i], m.seqs[i], targets_);
      ASSERT_EQ(want.targets, got.targets) << "test " << i;
      EXPECT_EQ(want.first_po, got.first_po) << "test " << i;
      EXPECT_EQ(want.state_diff, got.state_diff) << "test " << i;
    }
  }
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return std::string(info.param.tdf ? "tdf_" : "") +
         (info.param.partial_scan ? "partial_seed" : "full_seed") +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ParallelEquivalence,
    ::testing::Values(Case{1, false}, Case{2, false}, Case{3, false},
                      Case{1, true}, Case{2, true}, Case{3, true},
                      // Transition-delay model: the frame-gated kernel
                      // paths (activation-aware Full and Cone variants)
                      // must agree bit-for-bit too.
                      Case{1, false, true}, Case{2, false, true},
                      Case{3, false, true}, Case{1, true, true},
                      Case{2, true, true}, Case{3, true, true}),
    case_name);

}  // namespace
}  // namespace scanc::fault
