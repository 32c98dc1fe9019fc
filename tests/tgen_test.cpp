#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "fault/batch_engine.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "fault/frame_common.hpp"
#include "fault/frame_loop.hpp"
#include "fault/group_worker.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "sim/simd.hpp"
#include "tgen/greedy_tgen.hpp"
#include "tgen/random_seq.hpp"

namespace scanc::tgen {
namespace {

using fault::FaultClassId;
using fault::FaultList;
using fault::FaultSet;
using fault::FaultSimulator;
using netlist::Circuit;
using netlist::GateType;

/// 40 inputs, a Const0 and a Const1 that each fan out twice (so their
/// stem faults are classes of their own) into the first gates, and 20
/// NAND/DFF/XOR slices: over 64 classes, so at least two groups, with
/// the constant stems packed into the first.
Circuit make_constant_stem_circuit() {
  const auto name = [](char prefix, int n) {
    std::string s(1, prefix);
    s += std::to_string(n);
    return s;
  };
  netlist::CircuitBuilder b("const_stems");
  for (int i = 0; i < 40; ++i) b.add_input(name('i', i));
  b.add_gate(GateType::Const0, "k0", {});
  b.add_gate(GateType::Const1, "k1", {});
  b.add_gate(GateType::And, "a0", {"i0", "k1"});
  b.add_gate(GateType::And, "a1", {"i1", "k1"});
  b.add_gate(GateType::Or, "b0", {"i2", "k0"});
  b.add_gate(GateType::Or, "b1", {"i3", "k0"});
  for (const char* out : {"a0", "a1", "b0", "b1"}) b.mark_output(out);
  for (int j = 0; j < 20; ++j) {
    const std::string n = name('n', j);
    const std::string f = name('f', j);
    const std::string o = name('o', j);
    b.add_gate(GateType::Nand, n, {name('i', 2 * j), name('i', 2 * j + 1)});
    b.add_gate(GateType::Dff, f, {n});
    b.add_gate(GateType::Xor, o, {n, f});
    b.mark_output(o);
  }
  return b.build();
}

/// The classes whose representative is a stem fault on `node`.
std::vector<FaultClassId> stem_classes(const FaultList& fl,
                                       netlist::NodeId node) {
  std::vector<FaultClassId> out;
  for (FaultClassId id = 0; id < fl.num_classes(); ++id) {
    const fault::Fault& f = fl.representative(id);
    if (f.node == node && f.pin == sim::kStemPin) out.push_back(id);
  }
  return out;
}

/// The stuck-at Session as it stepped before it ran on the batch
/// engine, kept verbatim as the reference: one one-lane simulator, one
/// injection map per group, and every group with undetected faults
/// stepped on its own 64-bit word.  (It shares one simulator across the
/// groups without rewriting the constants, so it is only a reference on
/// circuits without constants.)
class OneLaneSession {
 public:
  struct Snapshot {
    std::vector<sim::PackedV3> ff_values;
    FaultSet detected;
    std::vector<std::uint32_t> group_remaining;
  };

  OneLaneSession(const Circuit& c, const FaultList& fl,
                 std::vector<FaultClassId> targets)
      : circuit_(&c), sim_(c), targets_(std::move(targets)),
        detected_(fl.num_classes()) {
    num_groups_ = fault::num_groups(targets_.size());
    const std::size_t nff = circuit_->num_flip_flops();
    group_remaining_.resize(num_groups_);
    ff_values_.resize(num_groups_ * nff);
    group_injections_.reserve(num_groups_);
    for (std::size_t g = 0; g < num_groups_; ++g) {
      const std::size_t base = g * fault::kGroupSize;
      const std::size_t n =
          std::min(fault::kGroupSize, targets_.size() - base);
      group_injections_.emplace_back(c);
      fault::build_group_injections(
          fl, std::span<const FaultClassId>(targets_.data() + base, n),
          group_injections_.back());
      sim_.reset(&group_injections_[g]);
      sim_.get_ff_values(
          std::span<sim::PackedV3>(ff_values_.data() + g * nff, nff));
      group_remaining_[g] = static_cast<std::uint32_t>(n);
    }
  }

  std::size_t step(const sim::Vector3& pi) {
    const std::size_t nff = circuit_->num_flip_flops();
    std::size_t newly = 0;
    for (std::size_t g = 0; g < num_groups_; ++g) {
      if (group_remaining_[g] == 0) continue;  // group fully detected
      sim_.set_ff_values(
          std::span<const sim::PackedV3>(ff_values_.data() + g * nff, nff));
      sim_.apply_frame(pi, &group_injections_[g]);
      const std::uint64_t det = fault::po_detections(sim_);
      sim_.latch(&group_injections_[g]);
      sim_.get_ff_values(
          std::span<sim::PackedV3>(ff_values_.data() + g * nff, nff));
      newly += credit(g, det);
    }
    return newly;
  }

  [[nodiscard]] std::size_t latched_effects() const {
    const std::size_t nff = circuit_->num_flip_flops();
    std::size_t effects = 0;
    for (std::size_t g = 0; g < num_groups_; ++g) {
      for (std::size_t i = 0; i < nff; ++i) {
        effects += static_cast<std::size_t>(
            std::popcount(sim::wide_detections(ff_values_[g * nff + i])));
      }
    }
    return effects;
  }

  [[nodiscard]] Snapshot snapshot() const {
    return Snapshot{ff_values_, detected_, group_remaining_};
  }
  void restore(const Snapshot& snap) {
    ff_values_ = snap.ff_values;
    detected_ = snap.detected;
    group_remaining_ = snap.group_remaining;
  }
  [[nodiscard]] const FaultSet& detected() const { return detected_; }
  [[nodiscard]] std::size_t groups_done() const {
    return static_cast<std::size_t>(
        std::count(group_remaining_.begin(), group_remaining_.end(), 0u));
  }

 private:
  std::size_t credit(std::size_t g, std::uint64_t det) {
    std::size_t newly = 0;
    fault::for_each_slot(det, [&](std::size_t j) {
      const FaultClassId id = targets_[g * fault::kGroupSize + j];
      if (!detected_.test(id)) {
        detected_.set(id);
        --group_remaining_[g];
        ++newly;
      }
    });
    return newly;
  }

  const Circuit* circuit_;
  sim::PackedSeqSim sim_;
  std::vector<FaultClassId> targets_;
  std::size_t num_groups_ = 0;
  std::vector<sim::PackedV3> ff_values_;
  std::vector<sim::PackedInjectionMap> group_injections_;
  FaultSet detected_;
  std::vector<std::uint32_t> group_remaining_;
};

TEST(RandomSeq, HasRequestedShapeAndIsDeterministic) {
  const Circuit c = gen::make_s27();
  const sim::Sequence a = random_test_sequence(c, 50, 3);
  EXPECT_EQ(a.length(), 50u);
  for (const auto& f : a.frames) {
    EXPECT_EQ(f.size(), c.num_inputs());
    EXPECT_TRUE(sim::fully_specified(f));
  }
  const sim::Sequence b = random_test_sequence(c, 50, 3);
  EXPECT_EQ(a, b);
  const sim::Sequence d = random_test_sequence(c, 50, 4);
  EXPECT_NE(a, d);
}

TEST(Session, StepMatchesBatchSimulation) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const sim::Sequence seq = random_test_sequence(c, 20, 17);

  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  for (const auto& v : seq.frames) (void)session.step(v);

  const FaultSet batch = fsim.detect_no_scan(seq);
  EXPECT_EQ(session.detected(), batch);
}

TEST(Session, SnapshotRestoreRewindsExactly) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  FaultSimulator fsim(c, fl);
  const sim::Sequence seq = random_test_sequence(c, 16, 23);

  FaultSet targets = fsim.all_faults();
  FaultSimulator::Session session(fsim, targets);
  for (int i = 0; i < 8; ++i) (void)session.step(seq.frames[i]);
  const auto snap = session.snapshot();
  const FaultSet mid = session.detected();

  // Take a detour, rewind, replay: results must be identical.
  for (int i = 8; i < 16; ++i) (void)session.step(seq.frames[i]);
  const FaultSet end1 = session.detected();
  session.restore(snap);
  EXPECT_EQ(session.detected(), mid);
  for (int i = 8; i < 16; ++i) (void)session.step(seq.frames[i]);
  EXPECT_EQ(session.detected(), end1);
}

TEST(Session, ConstantStemFaultsMatchBatchSimulation) {
  // Every group sees its own constant-stem injections, and no group sees
  // another's: the Session detects exactly what detect_no_scan detects
  // over the same frames, one lane per frame and at the default lanes.
  const Circuit c = make_constant_stem_circuit();
  const FaultList fl = FaultList::build(c);
  ASSERT_GE(fl.num_classes(), 64u);
  const std::vector<FaultClassId> k0 = stem_classes(fl, c.find("k0"));
  const std::vector<FaultClassId> k1 = stem_classes(fl, c.find("k1"));
  ASSERT_FALSE(k0.empty());
  ASSERT_FALSE(k1.empty());
  const sim::Sequence seq = random_test_sequence(c, 12, 5);
  for (const sim::LaneWidth w : {sim::LaneWidth::W64, sim::LaneWidth::Auto}) {
    FaultSimulator fsim(c, fl);
    fsim.set_lane_width(w);
    const FaultSet want = fsim.detect_no_scan(seq);
    // The stuck-at-0 on k1 and the stuck-at-1 on k0 are detectable.
    std::size_t stems = 0;
    for (const auto& ids : {k0, k1}) {
      for (const FaultClassId id : ids) stems += want.test(id) ? 1 : 0;
    }
    EXPECT_GE(stems, 2u) << sim::lane_width_name(w);
    FaultSimulator::Session session(fsim, fsim.all_faults());
    for (const auto& v : seq.frames) (void)session.step(v);
    EXPECT_EQ(session.detected(), want) << sim::lane_width_name(w);
  }
}

TEST(Session, FullyDetectedGroupsMatchOneLaneLoop) {
  // Groups become fully detected mid-sequence (the targets are exactly
  // what the sequence detects), and rewound detours revive some of
  // them.  Every step's new detections and latched effects, and every
  // snapshot's saved state (a fully detected group's state frozen at the
  // latch of the frame that detected its last fault), must match the
  // one-lane loop at every lane width.
  gen::GenParams p;
  p.name = "freeze";
  p.seed = 21;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 12;
  p.num_gates = 400;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  const sim::Sequence seq = random_test_sequence(c, 60, 7);
  const sim::Sequence detour = random_test_sequence(c, 64, 8);
  FaultSimulator probe(c, fl);
  const FaultSet targets = probe.detect_no_scan(seq);
  ASSERT_GT(fault::num_groups(targets.count()), 8u);
  // The Session's group order: the query record order of the targets.
  const std::vector<FaultClassId> order =
      probe.prefix_detection(sim::Vector3(c.num_flip_flops(), sim::V3::X),
                             sim::Sequence{}, targets)
          .targets;

  OneLaneSession ref(c, fl, order);
  std::vector<std::size_t> want;
  std::vector<std::vector<sim::PackedV3>> want_saved;
  std::size_t done_mid = 0;
  for (std::size_t t = 0; t < seq.length(); ++t) {
    if (t % 5 == 4) {
      const auto snap = ref.snapshot();
      for (std::size_t u = t; u < t + 4; ++u) (void)ref.step(detour.frames[u]);
      want.push_back(ref.latched_effects());
      ref.restore(snap);
      want_saved.push_back(ref.snapshot().ff_values);
    }
    want.push_back(ref.step(seq.frames[t]));
    want.push_back(ref.latched_effects());
    if (t == seq.length() / 2) done_mid = ref.groups_done();
  }
  EXPECT_EQ(ref.detected(), targets);
  EXPECT_GT(done_mid, 0u);
  EXPECT_LT(done_mid, ref.groups_done());
  want_saved.push_back(ref.snapshot().ff_values);

  for (const sim::LaneWidth w : {sim::LaneWidth::W64, sim::LaneWidth::W256,
                                 sim::LaneWidth::W512, sim::LaneWidth::Auto}) {
    FaultSimulator fsim(c, fl);
    fsim.set_lane_width(w);
    FaultSimulator::Session s(fsim, targets);
    std::vector<std::size_t> got;
    std::vector<std::vector<sim::PackedV3>> got_saved;
    for (std::size_t t = 0; t < seq.length(); ++t) {
      if (t % 5 == 4) {
        const auto snap = s.snapshot();
        for (std::size_t u = t; u < t + 4; ++u) (void)s.step(detour.frames[u]);
        got.push_back(s.latched_effects());
        s.restore(snap);
        got_saved.push_back(s.snapshot().ff_values);
      }
      got.push_back(s.step(seq.frames[t]));
      got.push_back(s.latched_effects());
    }
    got_saved.push_back(s.snapshot().ff_values);
    EXPECT_EQ(got, want) << sim::lane_width_name(w);
    EXPECT_TRUE(got_saved == want_saved) << sim::lane_width_name(w);
    EXPECT_EQ(s.detected(), targets) << sim::lane_width_name(w);
  }
}

TEST(SessionFrame, EveryWordMatchesOneLaneFrames) {
  // The stuck-at Session frame on the portable WideWord<4> and
  // WideWord<8> and on the native word: each lane's detections and
  // latched state equal one-lane frames of its group, with two chunks
  // (a full and a partial one) alternating on one engine, so each frame
  // starts from the other chunk's constants.
  const Circuit c = make_constant_stem_circuit();
  const FaultList fl = FaultList::build(c);
  std::vector<FaultClassId> list(fl.num_classes());
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i] = static_cast<FaultClassId>(i);
  }
  const std::size_t ngroups = fault::num_groups(list.size());
  ASSERT_GE(ngroups, 2u);
  const util::Bitset scan(c.num_flip_flops(), true);
  const sim::Sequence seq = random_test_sequence(c, 10, 3);
  const std::size_t nff = c.num_flip_flops();
  const auto one =
      fault::make_batch_engine(c, fl, scan, {64, sim::SimdIsa::Portable});

  for (const sim::SimdConfig cfg :
       {sim::SimdConfig{256, sim::SimdIsa::Portable},
        sim::SimdConfig{512, sim::SimdIsa::Portable},
        sim::resolve_simd(sim::LaneWidth::Auto)}) {
    const auto wide = fault::make_batch_engine(c, fl, scan, cfg);
    const std::size_t lanes = wide->lanes();
    // Chunk A carries the groups round-robin into every lane, chunk B
    // one group fewer (at least one).
    std::vector<std::uint32_t> ga(lanes);
    std::vector<std::uint32_t> gb(std::max<std::size_t>(1, lanes - 1));
    for (std::size_t l = 0; l < ga.size(); ++l) ga[l] = l % ngroups;
    for (std::size_t l = 0; l < gb.size(); ++l) gb[l] = (l + 1) % ngroups;
    const auto a = wide->make_session_chunk(list, ga);
    const auto b = wide->make_session_chunk(list, gb);
    std::vector<std::unique_ptr<fault::SessionChunk>> ref_a;
    std::vector<std::unique_ptr<fault::SessionChunk>> ref_b;
    for (const std::uint32_t g : ga) {
      ref_a.push_back(one->make_session_chunk(list, {&g, 1}));
    }
    for (const std::uint32_t g : gb) {
      ref_b.push_back(one->make_session_chunk(list, {&g, 1}));
    }
    const auto check = [&](fault::SessionChunk& chunk, std::size_t n,
                           std::vector<std::unique_ptr<fault::SessionChunk>>&
                               refs,
                           const sim::Vector3& pi, const char* what) {
      std::vector<std::uint64_t> det(n);
      wide->session_frame(chunk, pi, det);
      std::vector<sim::PackedV3> state(n * nff);
      chunk.store(state, (1ULL << n) - 1);
      for (std::size_t l = 0; l < n; ++l) {
        std::uint64_t want = 0;
        one->session_frame(*refs[l], pi, {&want, 1});
        std::vector<sim::PackedV3> ref_state(nff);
        refs[l]->store(ref_state, 1);
        EXPECT_EQ(det[l], want) << cfg.bits << " " << what << " lane " << l;
        EXPECT_TRUE(std::equal(ref_state.begin(), ref_state.end(),
                               state.begin() + l * nff))
            << cfg.bits << " " << what << " lane " << l;
      }
    };
    for (const sim::Vector3& pi : seq.frames) {
      check(*a, ga.size(), ref_a, pi, "full");
      check(*b, gb.size(), ref_b, pi, "partial");
    }
  }
}

TEST(GreedyTgen, DetectsMoreThanRandomOfSameLength) {
  gen::GenParams p;
  p.name = "gt";
  p.seed = 5;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 10;
  p.num_gates = 120;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  GreedyTgenOptions opt;
  opt.seed = 11;
  opt.max_length = 400;
  const GreedyTgenResult r = generate_test_sequence(c, fl, opt);
  EXPECT_GT(r.sequence.length(), 0u);
  EXPECT_LE(r.sequence.length(), opt.max_length + opt.segment_max);

  FaultSimulator fsim(c, fl);
  const sim::Sequence rnd = random_test_sequence(c, r.sequence.length(), 11);
  const FaultSet rnd_det = fsim.detect_no_scan(rnd);
  EXPECT_GE(r.detected.count(), rnd_det.count());
}

TEST(GreedyTgen, ReportedDetectionMatchesResimulation) {
  gen::GenParams p;
  p.name = "gt2";
  p.seed = 6;
  p.num_inputs = 4;
  p.num_outputs = 3;
  p.num_flip_flops = 6;
  p.num_gates = 60;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);

  GreedyTgenOptions opt;
  opt.seed = 12;
  opt.max_length = 200;
  const GreedyTgenResult r = generate_test_sequence(c, fl, opt);

  FaultSimulator fsim(c, fl);
  EXPECT_EQ(fsim.detect_no_scan(r.sequence), r.detected);
}

TEST(GreedyTgen, DeterministicForSameSeed) {
  const Circuit c = gen::make_s27();
  const FaultList fl = FaultList::build(c);
  GreedyTgenOptions opt;
  opt.seed = 42;
  opt.max_length = 120;
  const GreedyTgenResult a = generate_test_sequence(c, fl, opt);
  const GreedyTgenResult b = generate_test_sequence(c, fl, opt);
  EXPECT_EQ(a.sequence, b.sequence);
  EXPECT_EQ(a.detected, b.detected);
}

TEST(GreedyTgen, TransitionSequenceIsLaneWidthInvariant) {
  // Under transition faults each Session step packs the launching fault
  // groups lanes() per frame; the generated T0 and its detected set must
  // not depend on the width.  The circuit has enough classes for more
  // groups than one 512-bit frame holds.
  gen::GenParams p;
  p.name = "gt_tdf";
  p.seed = 8;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 12;
  p.num_gates = 400;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c, fault::FaultModel::transition());
  ASSERT_GT(fault::num_groups(fl.num_classes()), 8u);

  GreedyTgenOptions opt;
  opt.seed = 13;
  opt.max_length = 300;
  FaultSimulator w64(c, fl);
  w64.set_lane_width(sim::LaneWidth::W64);
  const GreedyTgenResult want = generate_test_sequence(w64, opt);
  ASSERT_GT(want.detected.count(), 0u);
  EXPECT_EQ(w64.detect_no_scan(want.sequence), want.detected);

  const GreedyTgenResult dflt = generate_test_sequence(c, fl, opt);
  EXPECT_EQ(dflt.sequence, want.sequence);
  EXPECT_EQ(dflt.detected, want.detected);
  for (const sim::LaneWidth w : {sim::LaneWidth::W256, sim::LaneWidth::W512}) {
    FaultSimulator wide(c, fl);
    wide.set_lane_width(w);
    const GreedyTgenResult got = generate_test_sequence(wide, opt);
    EXPECT_EQ(got.sequence, want.sequence) << sim::lane_width_name(w);
    EXPECT_EQ(got.detected, want.detected) << sim::lane_width_name(w);
  }
}

TEST(GreedyTgen, StuckAtSequenceIsLaneWidthInvariant) {
  // Each stuck-at Session step packs the groups lanes() per frame; the generated T0 and its detected set must not
  // depend on the width.  The circuit has more groups than one 512-bit
  // frame holds.
  gen::GenParams p;
  p.name = "gt_sa";
  p.seed = 8;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 12;
  p.num_gates = 400;
  const Circuit c = gen::generate_circuit(p);
  const FaultList fl = FaultList::build(c);
  ASSERT_GT(fault::num_groups(fl.num_classes()), 8u);

  GreedyTgenOptions opt;
  opt.seed = 13;
  opt.max_length = 300;
  FaultSimulator w64(c, fl);
  w64.set_lane_width(sim::LaneWidth::W64);
  const GreedyTgenResult want = generate_test_sequence(w64, opt);
  ASSERT_GT(want.detected.count(), 0u);
  EXPECT_EQ(w64.detect_no_scan(want.sequence), want.detected);

  const GreedyTgenResult dflt = generate_test_sequence(c, fl, opt);
  EXPECT_EQ(dflt.sequence, want.sequence);
  EXPECT_EQ(dflt.detected, want.detected);
  for (const sim::LaneWidth w : {sim::LaneWidth::W256, sim::LaneWidth::W512}) {
    FaultSimulator wide(c, fl);
    wide.set_lane_width(w);
    const GreedyTgenResult got = generate_test_sequence(wide, opt);
    EXPECT_EQ(got.sequence, want.sequence) << sim::lane_width_name(w);
    EXPECT_EQ(got.detected, want.detected) << sim::lane_width_name(w);
  }
}

}  // namespace
}  // namespace scanc::tgen
