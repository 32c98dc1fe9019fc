#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "gen/circuit_gen.hpp"
#include "gen/embedded.hpp"
#include "sim/injection.hpp"
#include "sim/logic.hpp"
#include "sim/packed.hpp"
#include "sim/seq_sim.hpp"
#include "sim/sequence.hpp"
#include "sim/wide.hpp"
#include "util/rng.hpp"

namespace scanc::sim {
namespace {

constexpr std::array<V3, 3> kAll = {V3::Zero, V3::One, V3::X};

/// One line's masks with every slot of `mask` stuck at one value.
template <class W>
LineMasks<W> stuck(W mask, bool stuck_one) {
  return stuck_one ? LineMasks<W>{zero<W>(), mask}
                   : LineMasks<W>{mask, zero<W>()};
}

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
  v = w_inject(v, stuck(std::uint64_t{0b1010}, /*stuck_one=*/true));
  EXPECT_EQ(slot(v, 0), V3::Zero);
  EXPECT_EQ(slot(v, 1), V3::One);
  EXPECT_EQ(slot(v, 2), V3::Zero);
  EXPECT_EQ(slot(v, 3), V3::One);

  PackedV3 x = broadcast(V3::X);
  x = w_inject(x, stuck(std::uint64_t{0b1}, /*stuck_one=*/false));
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
  std::array<std::uint64_t, 4> is0;
  std::array<std::uint64_t, 4> is1;
  for (std::size_t i = 0; i < 4; ++i) {
    is0[i] = lanes[i].is0;
    is1[i] = lanes[i].is1;
  }
  return {load_lanes<W4>(is0.data()), load_lanes<W4>(is1.data())};
}

std::uint64_t lane(const W4& w, std::size_t i) {
  std::array<std::uint64_t, 4> all;
  store_lanes(w, all.data());
  return all[i];
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
    std::array<std::uint64_t, 4> masks;
    for (std::uint64_t& m : masks) m = rng.next();
    const W4 mask = load_lanes<W4>(masks.data());
    for (const bool stuck_one : {false, true}) {
      const WideV3<W4> got = w_inject(a, stuck(mask, stuck_one));
      for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(lane_of(got, i), w_inject(la[i], stuck(masks[i], stuck_one)))
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
  EXPECT_FALSE(any(zero<W4>()));
  const std::array<std::uint64_t, 4> lanes = {0, 0, 0x8000000000000001ULL,
                                              0};
  const W4 v = load_lanes<W4>(lanes.data());
  EXPECT_TRUE(any(v));
  const W4 b = bcast_bit0(v);
  EXPECT_EQ(lane(b, 0), 0ULL);
  EXPECT_EQ(lane(b, 1), 0ULL);
  EXPECT_EQ(lane(b, 2), ~0ULL);  // bit 0 set -> lane saturates
  EXPECT_EQ(lane(b, 3), 0ULL);
  const W4 s = splat<W4>(0xdeadbeefULL);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(lane(s, i), 0xdeadbeefULL);
}

// --- the compiled frame ----------------------------------------------------
//
// CompiledFrame.* check the frame program and its injection patches
// against the scalar fault-free simulator and against the per-gate
// evaluator the program replaced (ref_eval_schedule below, kept
// verbatim), which applies per-node injection lists one at a time.

/// Every gate kind and arity the program tells apart: the AND family at
/// 1, 2, 3, 4, 5 and 10 inputs, BUF/NOT, and XOR/XNOR at 1, 2, 3 and 5.
std::vector<std::pair<netlist::GateType, std::size_t>> all_gate_kinds() {
  using netlist::GateType;
  std::vector<std::pair<GateType, std::size_t>> kinds = {{GateType::Buf, 1},
                                                         {GateType::Not, 1}};
  for (const GateType t :
       {GateType::And, GateType::Nand, GateType::Or, GateType::Nor}) {
    for (const std::size_t n : {1, 2, 3, 4, 5, 10}) kinds.emplace_back(t, n);
  }
  for (const GateType t : {GateType::Xor, GateType::Xnor}) {
    for (const std::size_t n : {1, 2, 3, 5}) kinds.emplace_back(t, n);
  }
  return kinds;
}

/// Two levels of every gate kind: level 1 over ten inputs, three
/// flip-flops and both constants, level 2 over level 1.  Every level-2
/// gate is a PO; three of them feed the flip-flops.
netlist::Circuit all_kinds_circuit() {
  const auto kinds = all_gate_kinds();
  netlist::CircuitBuilder b("all_kinds");
  std::vector<std::string> sources;
  for (int i = 0; i < 10; ++i) {
    sources.emplace_back("a");
    sources.back() += std::to_string(i);
    b.add_input(sources.back());
  }
  for (const char* ff : {"q0", "q1", "q2"}) sources.emplace_back(ff);
  b.add_gate(netlist::GateType::Const0, "k0", {});
  b.add_gate(netlist::GateType::Const1, "k1", {});
  sources.emplace_back("k0");
  sources.emplace_back("k1");
  std::vector<std::string> level1;
  std::vector<std::string> level2;
  for (const auto& [pool, out, step] :
       {std::tuple{&sources, &level1, 1}, std::tuple{&level1, &level2, 3}}) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::vector<std::string_view> fanins;
      for (std::size_t i = 0; i < kinds[k].second; ++i) {
        fanins.emplace_back((*pool)[(k * step + i) % pool->size()]);
      }
      out->emplace_back(out == &level1 ? "g1_" : "g2_");
      out->back() += std::to_string(k);
      b.add_gate(kinds[k].first, out->back(), fanins);
    }
  }
  for (const std::string& g : level2) b.mark_output(g);
  b.add_gate(netlist::GateType::Dff, "q0", {std::string_view(level2[0])});
  b.add_gate(netlist::GateType::Dff, "q1", {std::string_view(level2[13])});
  b.add_gate(netlist::GateType::Dff, "q2", {std::string_view(level2[27])});
  return b.build();
}

template <class W>
std::array<std::uint64_t, kWordLanes<W>> word_lanes(const W& w) {
  std::array<std::uint64_t, kWordLanes<W>> out{};
  store_lanes(w, out.data());
  return out;
}

template <class W>
bool same(const WideV3<W>& a, const WideV3<W>& b) {
  return word_lanes(a.is0) == word_lanes(b.is0) &&
         word_lanes(a.is1) == word_lanes(b.is1);
}

/// Slot `bit` of lane `l`.
template <class W>
V3 lane_slot(const WideV3<W>& v, std::size_t l, unsigned bit) {
  return slot(PackedV3{word_lanes(v.is0)[l], word_lanes(v.is1)[l]}, bit);
}

/// The word whose lane l holds per_lane[l][i] in every slot.
template <class W>
WideV3<W> lanes_word(const std::vector<Vector3>& per_lane, std::size_t i) {
  std::array<std::uint64_t, kWordLanes<W>> is0{};
  std::array<std::uint64_t, kWordLanes<W>> is1{};
  for (std::size_t l = 0; l < per_lane.size(); ++l) {
    const auto bits = static_cast<std::uint8_t>(per_lane[l][i]);
    is0[l] = (bits & 1) ? ~0ULL : 0;
    is1[l] = (bits & 2) ? ~0ULL : 0;
  }
  return {load_lanes<W>(is0.data()), load_lanes<W>(is1.data())};
}

template <class W>
W random_word(util::Rng& rng) {
  std::array<std::uint64_t, kWordLanes<W>> m{};
  for (std::uint64_t& x : m) x = rng.next();
  return load_lanes<W>(m.data());
}

template <class T>
std::vector<const T*> pointers(const std::vector<T>& v) {
  std::vector<const T*> out;
  for (const T& x : v) out.push_back(&x);
  return out;
}

/// One stuck-line injection in the per-node form the per-gate evaluator
/// read, with its one-at-a-time application.
template <class W>
struct Injection {
  std::int32_t pin = kStemPin;
  bool stuck_one = false;
  W mask{};
};

template <class W>
WideV3<W> w_inject(WideV3<W> v, W mask, bool stuck_one) {
  if (stuck_one) return {v.is0 & ~mask, v.is1 | mask};
  return {v.is0 | mask, v.is1 & ~mask};
}

template <class W>
[[nodiscard]] inline WideV3<W> apply_stem(
    WideV3<W> v, std::span<const Injection<W>> injs) noexcept {
  for (const Injection<W>& inj : injs) {
    if (inj.pin == kStemPin) v = w_inject(v, inj.mask, inj.stuck_one);
  }
  return v;
}

template <class W>
[[nodiscard]] inline WideV3<W> apply_pin(
    WideV3<W> v, int pin, std::span<const Injection<W>> injs) noexcept {
  for (const Injection<W>& inj : injs) {
    if (inj.pin == pin) v = w_inject(v, inj.mask, inj.stuck_one);
  }
  return v;
}

template <class W>
struct RefInjections {
  std::vector<std::vector<Injection<W>>> per_node;
  [[nodiscard]] bool any(netlist::NodeId node) const {
    return !per_node[node].empty();
  }
  [[nodiscard]] std::span<const Injection<W>> at(netlist::NodeId node) const {
    return per_node[node];
  }
};

/// The per-gate evaluator the frame program replaced, verbatim.
template <class W>
void ref_eval_schedule(const netlist::CsrSchedule& csr, WideV3<W>* values,
                       const RefInjections<W>* inj) {
  for (const netlist::NodeId id : csr.order) {
    const std::span<const netlist::NodeId> fi = csr.fanins(id);
    WideV3<W> out;
    if (inj == nullptr || !inj->any(id)) {
      // Fast path: no injections touch this gate.
      out = wide_eval_gate_at<W>(csr.types[id], fi.size(),
                                 [&](std::size_t i) { return values[fi[i]]; });
    } else {
      // Slow path: gather fanins with branch injections, then apply the
      // stem injections to the computed output.
      const std::span<const Injection<W>> injs = inj->at(id);
      out = wide_eval_gate_at<W>(
          csr.types[id], fi.size(), [&](std::size_t i) {
            return apply_pin(values[fi[i]], static_cast<int>(i), injs);
          });
      out = apply_stem(out, injs);
    }
    values[id] = out;
  }
}

/// The sources, frame and latch of the per-gate simulator.
template <class W>
struct RefFrame {
  RefFrame(const netlist::Circuit& c, const RefInjections<W>& inj)
      : c(c), inj(inj), values(c.num_nodes()),
        captured(c.num_flip_flops(), wide_broadcast<W>(V3::X)) {
    for (netlist::NodeId id = 0; id < c.num_nodes(); ++id) {
      const netlist::GateType t = c.node(id).type;
      WideV3<W> v = wide_broadcast<W>(V3::X);
      if (t == netlist::GateType::Const0) v = wide_broadcast<W>(V3::Zero);
      if (t == netlist::GateType::Const1) v = wide_broadcast<W>(V3::One);
      values[id] = v;
      if (netlist::is_source(t)) set_source(id, v);
    }
  }
  void set_source(netlist::NodeId id, WideV3<W> v) {
    if (inj.any(id)) v = apply_stem(v, inj.at(id));
    values[id] = v;
  }
  void load_state(const std::vector<Vector3>& states) {
    for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
      captured[i] = lanes_word<W>(states, i);
      set_source(c.flip_flops()[i], captured[i]);
    }
  }
  void apply_frame(const std::vector<Vector3>& pis) {
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      set_source(c.primary_inputs()[i], lanes_word<W>(pis, i));
    }
    ref_eval_schedule(c.csr(), values.data(), &inj);
  }
  void latch() {
    const auto ffs = c.flip_flops();
    std::vector<WideV3<W>> next(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      next[i] = values[c.csr().fanins(ffs[i])[0]];
      if (inj.any(ffs[i])) next[i] = apply_pin(next[i], 0, inj.at(ffs[i]));
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      captured[i] = next[i];
      set_source(ffs[i], next[i]);
    }
  }

  const netlist::Circuit& c;
  const RefInjections<W>& inj;
  std::vector<WideV3<W>> values;
  std::vector<WideV3<W>> captured;
};

/// One random (partly X) vector of `n` values per lane.
template <class W>
std::vector<Vector3> random_lane_vectors(std::size_t n, util::Rng& rng) {
  std::vector<Vector3> out;
  for (std::size_t l = 0; l < kWordLanes<W>; ++l) {
    Vector3 v = random_vector(n, rng);
    for (V3& x : v) {
      if (rng.chance(1, 6)) x = V3::X;
    }
    out.push_back(std::move(v));
  }
  return out;
}

TEST(CompiledFrame, ProgramSortsGatesByKindAndArity) {
  const netlist::Circuit c = all_kinds_circuit();
  const netlist::FrameOps& ops = c.csr().ops;
  // Per level: BUF, NOT and four 1-input gates; four 2-input and eight
  // 3-4-input AND-family gates; XOR and XNOR of 2; the 5- and 10-input
  // AND family and the 1-, 3- and 5-input XORs in the generic tail.
  EXPECT_EQ(ops.and1.size(), 2u * 6);
  EXPECT_EQ(ops.and2.size(), 2u * 4);
  EXPECT_EQ(ops.and4.size(), 2u * 8);
  EXPECT_EQ(ops.xor2.size(), 2u * 2);
  EXPECT_EQ(ops.tail.size(), 2u * 14);
  ASSERT_EQ(ops.ends.size(), c.depth());
  EXPECT_EQ(ops.ends.back()[netlist::FrameOps::kTail], ops.tail.size());
}

TEST(CompiledFrame, PatchesMergeEachLine) {
  const netlist::Circuit c = all_kinds_circuit();
  const netlist::NodeId g = c.find("g2_19");  // the 10-input OR
  const netlist::NodeId q1 = c.find("q1");
  PackedInjectionMap inj(c);
  inj.add(g, 7, false, 0b0010);
  inj.add(g, kStemPin, true, 0b0100);
  inj.add(g, 7, true, 0b1000);
  inj.add(g, 2, false, 0b0100);
  inj.add(g, 7, false, 0b10000);
  inj.add(q1, 0, true, 0b0010);
  inj.add(q1, kStemPin, false, 0b0100);
  inj.compile();
  // One line each, stem first, then the branches by pin.
  const auto gate = inj.patches(PatchKind::Gate);
  ASSERT_EQ(gate.size(), 3u);
  EXPECT_EQ(inj.patched_gates(), 1u);
  for (const LinePatch<std::uint64_t>& l : gate) {
    EXPECT_EQ(l.node, g);
    EXPECT_EQ(l.pos, c.csr().rank[g]);
  }
  EXPECT_EQ(gate[0].pin, kStemPin);
  EXPECT_EQ(gate[0].masks.m0, 0u);
  EXPECT_EQ(gate[0].masks.m1, 0b0100u);
  EXPECT_EQ(gate[1].pin, 2);
  EXPECT_EQ(gate[1].masks.m0, 0b0100u);
  EXPECT_EQ(gate[2].pin, 7);
  EXPECT_EQ(gate[2].masks.m0, 0b10010u);
  EXPECT_EQ(gate[2].masks.m1, 0b1000u);
  const auto ff = inj.patches(PatchKind::FlipFlop);
  ASSERT_EQ(ff.size(), 2u);
  EXPECT_EQ(ff[0].node, q1);
  EXPECT_EQ(ff[0].pin, kStemPin);
  EXPECT_EQ(ff[0].masks.m0, 0b0100u);
  EXPECT_EQ(ff[1].pin, 0);
  EXPECT_EQ(ff[1].masks.m1, 0b0010u);
  EXPECT_TRUE(inj.patches(PatchKind::Input).empty());
  EXPECT_TRUE(inj.patches(PatchKind::Const).empty());
  inj.clear();
  EXPECT_TRUE(inj.patches(PatchKind::Gate).empty());
  EXPECT_EQ(inj.patched_gates(), 0u);
  EXPECT_TRUE(inj.patches(PatchKind::FlipFlop).empty());
}

/// Fault-free, lane l of a SeqSim<W> with per-lane stimulus follows the
/// scalar simulator on lane l's test.
template <class W>
void check_matches_scalar() {
  constexpr std::size_t kLanes = kWordLanes<W>;
  gen::GenParams p;
  p.name = "prop";
  p.seed = 11;
  p.num_inputs = 6;
  p.num_outputs = 5;
  p.num_flip_flops = 7;
  p.num_gates = 80;
  for (const netlist::Circuit& c :
       {all_kinds_circuit(), gen::generate_circuit(p)}) {
    util::Rng rng(c.num_nodes() * 31 + kLanes);
    const auto states = random_lane_vectors<W>(c.num_flip_flops(), rng);
    std::vector<std::vector<Vector3>> frames;  // [t][lane]
    std::vector<Sequence> seqs(kLanes);
    for (int t = 0; t < 6; ++t) {
      frames.push_back(random_lane_vectors<W>(c.num_inputs(), rng));
      for (std::size_t l = 0; l < kLanes; ++l) {
        seqs[l].frames.push_back(frames.back()[l]);
      }
    }
    SeqSim<W> sim(c);
    sim.load_state(pointers(states), nullptr);
    std::vector<Trace> want;
    for (std::size_t l = 0; l < kLanes; ++l) {
      want.push_back(simulate_fault_free_scalar(c, &states[l], seqs[l]));
    }
    for (std::size_t t = 0; t < frames.size(); ++t) {
      sim.apply_frame(pointers(frames[t]), nullptr);
      sim.latch();
      for (std::size_t l = 0; l < kLanes; ++l) {
        for (std::size_t i = 0; i < c.num_outputs(); ++i) {
          EXPECT_EQ(lane_slot(sim.value(c.primary_outputs()[i]), l, 37),
                    want[l].po_frames[t][i])
              << c.name() << " frame " << t << " lane " << l << " po " << i;
        }
        for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
          EXPECT_EQ(lane_slot(sim.captured(i), l, 5), want[l].states[t][i])
              << c.name() << " frame " << t << " lane " << l << " ff " << i;
        }
      }
    }
  }
}

/// Under injections, SeqSim<W> matches the per-gate simulator on every
/// node and capture of every frame.
template <class W>
void check_matches_per_gate() {
  const netlist::Circuit c = all_kinds_circuit();
  const netlist::CsrSchedule& csr = c.csr();
  util::Rng rng(0xc0ffee + kWordLanes<W>);
  // Round 0 injects every line of the circuit: each stem (gates, PIs,
  // FF Q, constants) and each branch (every gate pin, FF D pins); later
  // rounds a random eighth of them.  Each line takes three injections in
  // disjoint slots: stuck-at-0, stuck-at-1 and stuck-at-0 again.
  for (int round = 0; round < 12; ++round) {
    InjectionMap<W> inj(c);
    RefInjections<W> ref_inj{
        std::vector<std::vector<Injection<W>>>(c.num_nodes())};
    const auto add = [&](netlist::NodeId node, int pin) {
      if (round > 0 && !rng.chance(1, 8)) return;
      const W all = random_word<W>(rng);
      const W r1 = random_word<W>(rng);
      const W r2 = random_word<W>(rng);
      const W parts[3] = {all & r1, all & ~r1 & r2, all & ~r1 & ~r2};
      for (int k = 0; k < 3; ++k) {
        inj.add(node, pin, k == 1, parts[k]);
        ref_inj.per_node[node].push_back(Injection<W>{pin, k == 1, parts[k]});
      }
    };
    for (netlist::NodeId id = 0; id < c.num_nodes(); ++id) {
      add(id, kStemPin);
      for (std::size_t pin = 0; pin < csr.fanins(id).size(); ++pin) {
        add(id, static_cast<int>(pin));
      }
    }
    inj.compile();

    SeqSim<W> sim(c);
    RefFrame<W> ref(c, ref_inj);
    sim.reset(&inj);
    const auto states = random_lane_vectors<W>(c.num_flip_flops(), rng);
    sim.load_state(pointers(states), &inj);
    ref.load_state(states);
    for (int t = 0; t < 4; ++t) {
      const auto pis = random_lane_vectors<W>(c.num_inputs(), rng);
      sim.apply_frame(pointers(pis), &inj);
      ref.apply_frame(pis);
      for (netlist::NodeId id = 0; id < c.num_nodes(); ++id) {
        EXPECT_TRUE(same(sim.value(id), ref.values[id]))
            << "round " << round << " frame " << t << " node "
            << c.node(id).name;
      }
      sim.latch(&inj);
      ref.latch();
      for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
        EXPECT_TRUE(same(sim.captured(i), ref.captured[i]))
            << "round " << round << " frame " << t << " ff " << i;
        EXPECT_TRUE(same(sim.value(c.flip_flops()[i]),
                         ref.values[c.flip_flops()[i]]))
            << "round " << round << " frame " << t << " ff " << i;
      }
    }
  }
}

TEST(CompiledFrame, MatchesScalarSimulatorW64) {
  check_matches_scalar<std::uint64_t>();
}
TEST(CompiledFrame, MatchesScalarSimulatorPortable256) {
  check_matches_scalar<WideWord<4>>();
}
TEST(CompiledFrame, MatchesScalarSimulatorPortable512) {
  check_matches_scalar<WideWord<8>>();
}
TEST(CompiledFrame, MatchesPerGateEvaluatorW64) {
  check_matches_per_gate<std::uint64_t>();
}
TEST(CompiledFrame, MatchesPerGateEvaluatorPortable256) {
  check_matches_per_gate<WideWord<4>>();
}
TEST(CompiledFrame, MatchesPerGateEvaluatorPortable512) {
  check_matches_per_gate<WideWord<8>>();
}
// The native words exist only in a build whose baseline flags target
// them (the wide-kernels CI job's AVX2 leg, or -march=native).
#if defined(__AVX2__)
TEST(CompiledFrame, MatchesScalarSimulatorAvx2) {
  check_matches_scalar<Avx2Word>();
}
TEST(CompiledFrame, MatchesPerGateEvaluatorAvx2) {
  check_matches_per_gate<Avx2Word>();
}
#endif
#if defined(__AVX512F__)
TEST(CompiledFrame, MatchesScalarSimulatorAvx512) {
  check_matches_scalar<Avx512Word>();
}
TEST(CompiledFrame, MatchesPerGateEvaluatorAvx512) {
  check_matches_per_gate<Avx512Word>();
}
#endif

}  // namespace
}  // namespace scanc::sim
