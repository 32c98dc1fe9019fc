// Randomized equivalence suite for the parallel fault-group execution
// layer and the simulation kernels: every FaultSimulator query must
// return bit-identical results for num_threads = 1 (serial, no pool)
// and num_threads = N (worker pool), and for every lane width (scalar
// 64-bit vs the default and the 256/512-bit wide engine, intrinsic or
// portable), across
// generated circuits under full- and partial-scan masks.  The
// pattern-parallel batch queries (detect_batch, times_batch) must
// match their per-test scalar answers element for element, including
// ragged final lane chunks.  This is the determinism guarantee
// documented in docs/execution.md, pinned.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "gen/circuit_gen.hpp"
#include "sim/seq_sim.hpp"
#include "tgen/random_seq.hpp"
#include "util/rng.hpp"

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
};

TEST_P(ParallelEquivalence, DetectNoScan) {
  const FaultSet all = serial_->detect_no_scan(seq_);
  const FaultSet sub = serial_->detect_no_scan(seq_, &targets_);
  for (FaultSimulator* other : others()) {
    EXPECT_EQ(all, other->detect_no_scan(seq_));
    EXPECT_EQ(sub, other->detect_no_scan(seq_, &targets_));
  }
}

TEST_P(ParallelEquivalence, DetectScanTest) {
  const FaultSet all = serial_->detect_scan_test(scan_in_, seq_);
  const FaultSet sub = serial_->detect_scan_test(scan_in_, seq_, &targets_);
  for (FaultSimulator* other : others()) {
    EXPECT_EQ(all, other->detect_scan_test(scan_in_, seq_));
    EXPECT_EQ(sub, other->detect_scan_test(scan_in_, seq_, &targets_));
  }
}

TEST_P(ParallelEquivalence, DetectionTimes) {
  const auto a = serial_->detection_times(scan_in_, seq_, targets_);
  for (FaultSimulator* other : others()) {
    const auto b = other->detection_times(scan_in_, seq_, targets_);
    ASSERT_EQ(a.targets, b.targets);
    EXPECT_EQ(a.first_po, b.first_po);
    ASSERT_EQ(a.state_diff.size(), b.state_diff.size());
    for (std::size_t i = 0; i < a.state_diff.size(); ++i) {
      EXPECT_EQ(a.state_diff[i], b.state_diff[i]) << "target " << i;
    }
  }
}

TEST_P(ParallelEquivalence, PrefixDetection) {
  const auto a = serial_->prefix_detection(scan_in_, seq_, targets_);
  for (FaultSimulator* other : others()) {
    const auto b = other->prefix_detection(scan_in_, seq_, targets_);
    ASSERT_EQ(a.targets, b.targets);
    EXPECT_EQ(a.first_po, b.first_po);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.all_detected(), b.all_detected());
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
}

TEST_P(ParallelEquivalence, ConsistentFaults) {
  // Observe the fault-free response: every undetected fault (and none of
  // the PO/scan-out-detected ones) must remain consistent, identically
  // in every mode.
  const sim::Trace good =
      sim::simulate_fault_free(*circuit_, &scan_in_, seq_);
  Vector3 observed_scan_out = good.states.back();
  for (std::size_t i = 0; i < observed_scan_out.size(); ++i) {
    if (!scan_mask_.test(i)) observed_scan_out[i] = sim::V3::X;
  }
  const FaultSet a = serial_->consistent_faults(
      scan_in_, seq_, good.po_frames, observed_scan_out, targets_);
  for (FaultSimulator* other : others()) {
    EXPECT_EQ(a, other->consistent_faults(scan_in_, seq_, good.po_frames,
                                          observed_scan_out, targets_));
  }
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
  const BatchMaterial m = make_batch(9);
  std::vector<FaultSimulator::DetectionTimes> want;
  want.reserve(m.batch.size());
  for (std::size_t i = 0; i < m.batch.size(); ++i) {
    want.push_back(
        serial_->detection_times(m.scan_ins[i], m.seqs[i], targets_));
  }
  std::vector<FaultSimulator*> sims = others();
  sims.push_back(&*serial_);
  for (FaultSimulator* s : sims) {
    const auto got = s->times_batch(m.batch, targets_);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].targets, got[i].targets) << "test " << i;
      EXPECT_EQ(want[i].first_po, got[i].first_po) << "test " << i;
      ASSERT_EQ(want[i].state_diff.size(), got[i].state_diff.size());
      for (std::size_t j = 0; j < want[i].state_diff.size(); ++j) {
        EXPECT_EQ(want[i].state_diff[j], got[i].state_diff[j])
            << "test " << i << " target " << j;
      }
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
