#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "sim/logic.hpp"
#include "sim/packed.hpp"
#include "sim/seq_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/wide.hpp"
#include "util/rng.hpp"

namespace scanc::sim {
namespace {

constexpr std::array<V3, 3> kAll = {V3::Zero, V3::One, V3::X};

TEST(Logic, NotTruthTable) {
  EXPECT_EQ(v3_not(V3::Zero), V3::One);
  EXPECT_EQ(v3_not(V3::One), V3::Zero);
  EXPECT_EQ(v3_not(V3::X), V3::X);
}

TEST(Logic, AndTruthTable) {
  EXPECT_EQ(v3_and(V3::Zero, V3::Zero), V3::Zero);
  EXPECT_EQ(v3_and(V3::Zero, V3::One), V3::Zero);
  EXPECT_EQ(v3_and(V3::One, V3::One), V3::One);
  EXPECT_EQ(v3_and(V3::Zero, V3::X), V3::Zero);  // controlling value wins
  EXPECT_EQ(v3_and(V3::One, V3::X), V3::X);
  EXPECT_EQ(v3_and(V3::X, V3::X), V3::X);
}

TEST(Logic, OrTruthTable) {
  EXPECT_EQ(v3_or(V3::Zero, V3::Zero), V3::Zero);
  EXPECT_EQ(v3_or(V3::One, V3::Zero), V3::One);
  EXPECT_EQ(v3_or(V3::One, V3::X), V3::One);  // controlling value wins
  EXPECT_EQ(v3_or(V3::Zero, V3::X), V3::X);
  EXPECT_EQ(v3_or(V3::X, V3::X), V3::X);
}

TEST(Logic, XorTruthTable) {
  EXPECT_EQ(v3_xor(V3::Zero, V3::Zero), V3::Zero);
  EXPECT_EQ(v3_xor(V3::Zero, V3::One), V3::One);
  EXPECT_EQ(v3_xor(V3::One, V3::One), V3::Zero);
  EXPECT_EQ(v3_xor(V3::One, V3::X), V3::X);  // X always propagates
  EXPECT_EQ(v3_xor(V3::Zero, V3::X), V3::X);
  EXPECT_EQ(v3_xor(V3::X, V3::X), V3::X);
}

TEST(Logic, OperatorsAgreeWithBooleanLogicOnBinary) {
  for (const bool a : {false, true}) {
    for (const bool b : {false, true}) {
      const V3 va = v3_from_bool(a);
      const V3 vb = v3_from_bool(b);
      EXPECT_EQ(v3_and(va, vb), v3_from_bool(a && b));
      EXPECT_EQ(v3_or(va, vb), v3_from_bool(a || b));
      EXPECT_EQ(v3_xor(va, vb), v3_from_bool(a != b));
      EXPECT_EQ(v3_not(va), v3_from_bool(!a));
    }
  }
}

TEST(Logic, CommutativityAndDeMorgan) {
  for (const V3 a : kAll) {
    for (const V3 b : kAll) {
      EXPECT_EQ(v3_and(a, b), v3_and(b, a));
      EXPECT_EQ(v3_or(a, b), v3_or(b, a));
      EXPECT_EQ(v3_xor(a, b), v3_xor(b, a));
      EXPECT_EQ(v3_not(v3_and(a, b)), v3_or(v3_not(a), v3_not(b)));
      EXPECT_EQ(v3_not(v3_or(a, b)), v3_and(v3_not(a), v3_not(b)));
    }
  }
}

TEST(Logic, CharConversionsRoundTrip) {
  for (const V3 v : kAll) {
    EXPECT_EQ(v3_from_char(to_char(v)), v);
  }
}

// Packed ops must agree with scalar ops slot-by-slot for every slot value
// combination.
TEST(Packed, SlotwiseAgreementWithScalarOps) {
  // Pack all 9 (a, b) combinations into the first 9 slots.
  PackedV3 pa;
  PackedV3 pb;
  std::array<V3, 9> a_vals;
  std::array<V3, 9> b_vals;
  int s = 0;
  for (const V3 a : kAll) {
    for (const V3 b : kAll) {
      a_vals[s] = a;
      b_vals[s] = b;
      set_slot(pa, s, a);
      set_slot(pb, s, b);
      ++s;
    }
  }
  const PackedV3 pand = w_and(pa, pb);
  const PackedV3 por = w_or(pa, pb);
  const PackedV3 pxor = w_xor(pa, pb);
  const PackedV3 pnot = w_not(pa);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(slot(pand, i), v3_and(a_vals[i], b_vals[i])) << i;
    EXPECT_EQ(slot(por, i), v3_or(a_vals[i], b_vals[i])) << i;
    EXPECT_EQ(slot(pxor, i), v3_xor(a_vals[i], b_vals[i])) << i;
    EXPECT_EQ(slot(pnot, i), v3_not(a_vals[i])) << i;
  }
}

TEST(Packed, BroadcastFillsAllSlots) {
  for (const V3 v : kAll) {
    const PackedV3 p = broadcast(v);
    for (const unsigned bit : {0u, 1u, 31u, 63u}) {
      EXPECT_EQ(slot(p, bit), v);
    }
  }
}

TEST(Packed, InjectForcesOnlyMaskedSlots) {
  PackedV3 v = broadcast(V3::Zero);
  v = w_inject(v, std::uint64_t{0b1010}, /*stuck_one=*/true);
  EXPECT_EQ(slot(v, 0), V3::Zero);
  EXPECT_EQ(slot(v, 1), V3::One);
  EXPECT_EQ(slot(v, 2), V3::Zero);
  EXPECT_EQ(slot(v, 3), V3::One);

  PackedV3 x = broadcast(V3::X);
  x = w_inject(x, std::uint64_t{0b1}, /*stuck_one=*/false);
  EXPECT_EQ(slot(x, 0), V3::Zero);
  EXPECT_EQ(slot(x, 1), V3::X);
}

TEST(Packed, DiffersFromReferenceIsConservative) {
  PackedV3 v;
  set_slot(v, 0, V3::One);   // matches reference 1
  set_slot(v, 1, V3::Zero);  // differs
  set_slot(v, 2, V3::X);     // unknown: must not count
  const std::uint64_t d = differs_from_reference(v, /*ref_one=*/true);
  EXPECT_TRUE(d & 0b010);
  EXPECT_FALSE(d & 0b001);
  EXPECT_FALSE(d & 0b100);
}

TEST(SeqSim, S27HandComputedFrames) {
  const netlist::Circuit c = gen::make_s27();
  Sequence seq;
  seq.frames.push_back(vector3_from_string("1111"));  // G0..G3
  seq.frames.push_back(vector3_from_string("0000"));
  const Trace t = simulate_fault_free(c, nullptr, seq);

  // Frame 0, all-ones from the all-X state: G9=NAND(G16=1, G15=0)=1,
  // G11=NOR(X,1)=0, G17=NOT(G11)=1; latched state (G5,G6,G7)=(1,0,0).
  ASSERT_EQ(t.po_frames.size(), 2u);
  EXPECT_EQ(to_string(t.po_frames[0]), "1");
  EXPECT_EQ(to_string(t.states[0]), "100");
  // Frame 1, all-zeros: G17=1 again, state becomes (0,0,0).
  EXPECT_EQ(to_string(t.po_frames[1]), "1");
  EXPECT_EQ(to_string(t.states[1]), "000");
}

TEST(SeqSim, AllXStateStaysUnknownWithoutStimulus) {
  // A lone toggling FF with no PI control can never initialize.
  netlist::CircuitBuilder b("toggle");
  b.add_input("a");
  b.add_gate(netlist::GateType::Dff, "q", {"nq"});
  b.add_gate(netlist::GateType::Not, "nq", {"q"});
  b.add_gate(netlist::GateType::And, "o", {"a", "q"});
  b.mark_output("o");
  const netlist::Circuit c = b.build();
  Sequence seq;
  for (int i = 0; i < 4; ++i) seq.frames.push_back(vector3_from_string("1"));
  const Trace t = simulate_fault_free(c, nullptr, seq);
  for (const auto& st : t.states) EXPECT_EQ(to_string(st), "x");
  for (const auto& po : t.po_frames) EXPECT_EQ(to_string(po), "x");
}

TEST(SeqSim, ScanInOverridesUnknownState) {
  netlist::CircuitBuilder b("sc");
  b.add_input("a");
  b.add_gate(netlist::GateType::Dff, "q", {"d"});
  b.add_gate(netlist::GateType::Xor, "d", {"a", "q"});
  b.mark_output("d");
  const netlist::Circuit c = b.build();
  const Vector3 si = vector3_from_string("1");
  Sequence seq;
  seq.frames.push_back(vector3_from_string("0"));
  seq.frames.push_back(vector3_from_string("1"));
  const Trace t = simulate_fault_free(c, &si, seq);
  EXPECT_EQ(to_string(t.po_frames[0]), "1");  // 0 xor 1
  EXPECT_EQ(to_string(t.states[0]), "1");
  EXPECT_EQ(to_string(t.po_frames[1]), "0");  // 1 xor 1
  EXPECT_EQ(to_string(t.states[1]), "0");
}

TEST(SeqSim, ConstantsEvaluate) {
  netlist::CircuitBuilder b("consts");
  b.add_input("a");
  b.add_gate(netlist::GateType::Const1, "one", {});
  b.add_gate(netlist::GateType::Const0, "zero", {});
  b.add_gate(netlist::GateType::And, "o1", {"a", "one"});
  b.add_gate(netlist::GateType::Or, "o2", {"a", "zero"});
  b.mark_output("o1");
  b.mark_output("o2");
  const netlist::Circuit c = b.build();
  Sequence seq;
  seq.frames.push_back(vector3_from_string("1"));
  const Trace t = simulate_fault_free(c, nullptr, seq);
  EXPECT_EQ(to_string(t.po_frames[0]), "11");
}

// Property: the packed engine and the independent scalar engine agree on
// random circuits and random (partially unknown) stimulus.
class PackedVsScalar : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackedVsScalar, TracesAgree) {
  gen::GenParams p;
  p.name = "prop";
  p.seed = GetParam();
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 6;
  p.num_gates = 60;
  const netlist::Circuit c = gen::generate_circuit(p);

  util::Rng rng(GetParam() * 7919 + 13);
  Sequence seq;
  for (int t = 0; t < 24; ++t) {
    Vector3 v = random_vector(c.num_inputs(), rng);
    // Sprinkle some X inputs to exercise 3-valued paths.
    for (auto& x : v) {
      if (rng.chance(1, 8)) x = V3::X;
    }
    seq.frames.push_back(std::move(v));
  }
  // Half the runs scan in a random state, half start from all-X.
  Vector3 si;
  const Vector3* scan_state_ptr = nullptr;
  if (GetParam() % 2 == 0) {
    si = random_vector(c.num_flip_flops(), rng);
    scan_state_ptr = &si;
  }
  const Trace packed = simulate_fault_free(c, scan_state_ptr, seq);
  const Trace scalar = simulate_fault_free_scalar(c, scan_state_ptr, seq);
  ASSERT_EQ(packed.po_frames.size(), scalar.po_frames.size());
  for (std::size_t t = 0; t < seq.length(); ++t) {
    EXPECT_EQ(to_string(packed.po_frames[t]), to_string(scalar.po_frames[t]))
        << "frame " << t;
    EXPECT_EQ(to_string(packed.states[t]), to_string(scalar.states[t]))
        << "frame " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedVsScalar,
                         ::testing::Range<std::uint64_t>(1, 21));

TEST(Sequence, SubsequenceMatchesPaperNotation) {
  util::Rng rng(3);
  const Sequence s = random_sequence(4, 10, rng);
  const Sequence sub = s.subsequence(2, 5);
  ASSERT_EQ(sub.length(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sub.frames[i], s.frames[i + 2]);
  }
}

TEST(Sequence, ConcatenationAppends) {
  util::Rng rng(4);
  const Sequence a = random_sequence(3, 5, rng);
  const Sequence b = random_sequence(3, 7, rng);
  const Sequence ab = a.concatenated(b);
  ASSERT_EQ(ab.length(), 12u);
  EXPECT_EQ(ab.frames[0], a.frames[0]);
  EXPECT_EQ(ab.frames[5], b.frames[0]);
  EXPECT_EQ(ab.frames[11], b.frames[6]);
}

TEST(Sequence, RandomVectorIsFullySpecified) {
  util::Rng rng(5);
  const Vector3 v = random_vector(64, rng);
  EXPECT_TRUE(fully_specified(v));
  Vector3 w(10, V3::X);
  randomize_x(w, rng);
  EXPECT_TRUE(fully_specified(w));
}

// ---------------------------------------------------------------------
// Wide words: every lane of a WideWord operation must evolve exactly as
// the corresponding PackedV3 operation over that lane alone — the
// no-bit-crosses-a-lane contract the wide kernels are built on.

using W4 = WideWord<4>;

WideV3<W4> wide_from_lanes(const std::array<PackedV3, 4>& lanes) {
  WideV3<W4> v{zero<W4>(), zero<W4>()};
  for (std::size_t i = 0; i < 4; ++i) {
    set_lane(v.is0, i, lanes[i].is0);
    set_lane(v.is1, i, lanes[i].is1);
  }
  return v;
}

PackedV3 lane_of(const WideV3<W4>& v, std::size_t i) {
  return {lane(v.is0, i), lane(v.is1, i)};
}

std::array<PackedV3, 4> random_lanes(util::Rng& rng) {
  std::array<PackedV3, 4> lanes;
  for (auto& l : lanes) {
    // is0|is1 per bit must be a valid V3 code (01, 10, or 11 — never 00).
    const std::uint64_t a = rng.next();
    const std::uint64_t b = rng.next();
    l.is0 = a | ~b;
    l.is1 = b | ~a;
  }
  return lanes;
}

TEST(WideWord, LanewiseOpsMatchPacked) {
  util::Rng rng(0x71de);
  for (int round = 0; round < 50; ++round) {
    const auto la = random_lanes(rng);
    const auto lb = random_lanes(rng);
    const WideV3<W4> a = wide_from_lanes(la);
    const WideV3<W4> b = wide_from_lanes(lb);
    const WideV3<W4> w_and_v = w_and(a, b);
    const WideV3<W4> w_or_v = w_or(a, b);
    const WideV3<W4> w_xor_v = w_xor(a, b);
    const WideV3<W4> w_not_v = w_not(a);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(lane_of(w_and_v, i), w_and(la[i], lb[i])) << "lane " << i;
      EXPECT_EQ(lane_of(w_or_v, i), w_or(la[i], lb[i])) << "lane " << i;
      EXPECT_EQ(lane_of(w_xor_v, i), w_xor(la[i], lb[i])) << "lane " << i;
      EXPECT_EQ(lane_of(w_not_v, i), w_not(la[i])) << "lane " << i;
    }
  }
}

TEST(WideWord, InjectMatchesPackedPerLane) {
  util::Rng rng(12345);
  for (int round = 0; round < 50; ++round) {
    const auto la = random_lanes(rng);
    const WideV3<W4> a = wide_from_lanes(la);
    W4 mask = zero<W4>();
    std::array<std::uint64_t, 4> masks;
    for (std::size_t i = 0; i < 4; ++i) {
      masks[i] = rng.next();
      set_lane(mask, i, masks[i]);
    }
    for (const bool stuck_one : {false, true}) {
      const WideV3<W4> got = w_inject(a, mask, stuck_one);
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(lane_of(got, i), w_inject(la[i], masks[i], stuck_one))
            << "lane " << i << " stuck_one=" << stuck_one;
      }
    }
  }
}

TEST(WideWord, DetectionsMatchScalarRule) {
  // wide_detections per lane == differs_from_reference against the
  // lane's slot-0 value when that reference is binary, 0 when it is X.
  util::Rng rng(777);
  for (int round = 0; round < 100; ++round) {
    auto la = random_lanes(rng);
    // Force a mix of reference-slot values across rounds.
    for (std::size_t i = 0; i < 4; ++i) {
      set_slot(la[i], 0, kAll[(round + i) % 3]);
    }
    const W4 got = wide_detections(wide_from_lanes(la));
    for (std::size_t i = 0; i < 4; ++i) {
      const V3 ref = slot(la[i], 0);
      const std::uint64_t want =
          is_binary(ref)
              ? (differs_from_reference(la[i], ref == V3::One) & ~1ULL)
              : 0ULL;
      EXPECT_EQ(lane(got, i), want) << "lane " << i << " round " << round;
    }
  }
}

TEST(WideWord, EvalGateMatchesPackedPerLane) {
  using netlist::GateType;
  util::Rng rng(424242);
  for (const GateType type :
       {GateType::Buf, GateType::Not, GateType::And, GateType::Nand,
        GateType::Or, GateType::Nor, GateType::Xor, GateType::Xnor}) {
    const std::size_t arity =
        (type == GateType::Buf || type == GateType::Not) ? 1 : 3;
    for (int round = 0; round < 20; ++round) {
      std::vector<std::array<PackedV3, 4>> fanin_lanes(arity);
      std::vector<WideV3<W4>> fanin_wide;
      for (std::size_t k = 0; k < arity; ++k) {
        fanin_lanes[k] = random_lanes(rng);
        fanin_wide.push_back(wide_from_lanes(fanin_lanes[k]));
      }
      const WideV3<W4> got = wide_eval_gate_at<W4>(
          type, arity, [&](std::size_t k) { return fanin_wide[k]; });
      for (std::size_t i = 0; i < 4; ++i) {
        const PackedV3 want = wide_eval_gate_at<std::uint64_t>(
            type, arity, [&](std::size_t k) { return fanin_lanes[k][i]; });
        EXPECT_EQ(lane_of(got, i), want)
            << "gate " << static_cast<int>(type) << " lane " << i;
      }
    }
  }
}

TEST(WideWord, Bcast0AndAny) {
  W4 v = zero<W4>();
  EXPECT_FALSE(any(v));
  set_lane(v, 2, 0x8000000000000001ULL);
  EXPECT_TRUE(any(v));
  const W4 b = bcast_bit0(v);
  EXPECT_EQ(lane(b, 0), 0ULL);
  EXPECT_EQ(lane(b, 1), 0ULL);
  EXPECT_EQ(lane(b, 2), ~0ULL);  // bit 0 set -> lane saturates
  EXPECT_EQ(lane(b, 3), 0ULL);
  const W4 s = splat<W4>(0xdeadbeefULL);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(lane(s, i), 0xdeadbeefULL);
}

}  // namespace
}  // namespace scanc::sim
