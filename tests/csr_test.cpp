// Unit tests for the flat simulation kernel substrate: the CSR/levelized
// schedule (netlist/csr.hpp) and the fault-free NodeTrace
// (sim/node_trace.hpp).  The
// end-to-end equivalence sweeps live in parallel_equiv_test.cpp; these
// tests pin the structural invariants each layer promises.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "gen/circuit_gen.hpp"
#include "netlist/circuit.hpp"
#include "netlist/csr.hpp"
#include "sim/node_trace.hpp"
#include "sim/seq_sim.hpp"
#include "util/rng.hpp"

namespace scanc {
namespace {

using netlist::CsrSchedule;
using netlist::GateType;
using netlist::NodeId;
using sim::Sequence;
using sim::V3;
using sim::Vector3;

netlist::Circuit make_circuit(std::uint64_t seed, std::size_t gates = 180) {
  gen::GenParams p;
  p.name = "csr";
  p.seed = seed;
  p.num_inputs = 5;
  p.num_outputs = 4;
  p.num_flip_flops = 9;
  p.num_gates = gates;
  return gen::generate_circuit(p);
}

// --- CsrSchedule ------------------------------------------------------

TEST(CsrSchedule, MirrorsNodeConnectivity) {
  const netlist::Circuit c = make_circuit(11);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.num_nodes(), c.num_nodes());
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    const netlist::Node& n = c.node(id);
    EXPECT_EQ(csr.types[id], n.type);
    const std::span<const NodeId> fi = csr.fanins(id);
    ASSERT_EQ(fi.size(), n.fanins.size());
    EXPECT_TRUE(std::equal(fi.begin(), fi.end(), n.fanins.begin()));
    const std::span<const NodeId> fo = csr.fanouts(id);
    ASSERT_EQ(fo.size(), n.fanouts.size());
    EXPECT_TRUE(std::equal(fo.begin(), fo.end(), n.fanouts.begin()));
  }
}

TEST(CsrSchedule, OrderIsLevelMajorAndComplete) {
  const netlist::Circuit c = make_circuit(12);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.order.size(), c.num_gates());

  // Every combinational gate appears exactly once; sources never do.
  std::set<NodeId> seen(csr.order.begin(), csr.order.end());
  ASSERT_EQ(seen.size(), csr.order.size());
  for (const NodeId id : csr.order) {
    EXPECT_TRUE(netlist::is_combinational(c.node(id).type));
  }

  // Level-major, ascending NodeId within a level, topologically valid.
  for (std::size_t i = 0; i + 1 < csr.order.size(); ++i) {
    const std::uint32_t la = c.node(csr.order[i]).level;
    const std::uint32_t lb = c.node(csr.order[i + 1]).level;
    EXPECT_LE(la, lb);
    if (la == lb) {
      EXPECT_LT(csr.order[i], csr.order[i + 1]);
    }
  }
  for (const NodeId id : csr.order) {
    for (const NodeId f : csr.fanins(id)) {
      EXPECT_LT(c.node(f).level, c.node(id).level);
    }
  }
}

TEST(CsrSchedule, LevelOffsetsSliceTheOrder) {
  const netlist::Circuit c = make_circuit(13);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.level_offsets.size(), c.depth() + 1);
  EXPECT_EQ(csr.level_offsets.front(), 0u);
  EXPECT_EQ(csr.level_offsets.back(), csr.order.size());
  for (std::uint32_t l = 1; l <= c.depth(); ++l) {
    for (std::uint32_t i = csr.level_offsets[l - 1];
         i < csr.level_offsets[l]; ++i) {
      EXPECT_EQ(c.node(csr.order[i]).level, l);
    }
  }
}

TEST(CsrSchedule, RankInvertsTheOrder) {
  const netlist::Circuit c = make_circuit(14);
  const CsrSchedule& csr = c.csr();
  ASSERT_EQ(csr.rank.size(), c.num_nodes());
  for (std::size_t i = 0; i < csr.order.size(); ++i) {
    EXPECT_EQ(csr.rank[csr.order[i]], i);
  }
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    if (netlist::is_source(c.node(id).type)) {
      EXPECT_EQ(csr.rank[id], netlist::kNoRank);
    }
  }
}

// --- NodeTrace --------------------------------------------------------

TEST(NodeTrace, MatchesReferenceSimulators) {
  const netlist::Circuit c = make_circuit(21);
  util::Rng rng(99);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 17, rng);

  sim::NodeTrace trace(c, &scan_in);
  trace.extend(seq.frames);
  ASSERT_EQ(trace.length(), seq.length());

  const sim::Trace packed = sim::simulate_fault_free(c, &scan_in, seq);
  const sim::Trace scalar =
      sim::simulate_fault_free_scalar(c, &scan_in, seq);
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const std::span<const NodeId> pos = c.primary_outputs();
    for (std::size_t j = 0; j < pos.size(); ++j) {
      EXPECT_EQ(trace.value(t, pos[j]), packed.po_frames[t][j]);
      EXPECT_EQ(trace.value(t, pos[j]), scalar.po_frames[t][j]);
    }
    // The state latched after frame t is its D fanin values.
    Vector3 st(c.num_flip_flops());
    for (std::size_t i = 0; i < st.size(); ++i) {
      st[i] = trace.value(t, c.csr().fanins(c.flip_flops()[i])[0]);
    }
    EXPECT_EQ(st, packed.states[t]);
    EXPECT_EQ(st, scalar.states[t]);
  }
  EXPECT_EQ(trace.initial_state(), scan_in);
}

TEST(NodeTrace, SeqSimLoadsTraceStatesInPlace) {
  // The trace-reading loads (broadcast, per lane, and from a frame's
  // node values) install exactly the state entering each frame, the one
  // simulate_fault_free latches.
  const netlist::Circuit c = make_circuit(23);
  util::Rng rng(5);
  const Vector3 scan_a = sim::random_vector(c.num_flip_flops(), rng);
  const Vector3 scan_b = sim::random_vector(c.num_flip_flops(), rng);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 9, rng);
  sim::NodeTrace a(c, &scan_a);
  a.extend(seq.frames);
  sim::NodeTrace b(c, &scan_b);
  b.extend(seq.frames);
  const sim::Trace ref_a = sim::simulate_fault_free(c, &scan_a, seq);
  const sim::Trace ref_b = sim::simulate_fault_free(c, &scan_b, seq);

  // FF state of slot 0 of lane l, from the captured (scan-out) view.
  const auto lane_state = [&](const auto& sim, std::size_t l) {
    Vector3 st(c.num_flip_flops());
    for (std::size_t i = 0; i < st.size(); ++i) {
      std::uint64_t is0[sim::kWordLanes<sim::WideWord<4>>];
      std::uint64_t is1[sim::kWordLanes<sim::WideWord<4>>];
      sim::store_lanes(sim.captured(i).is0, is0);
      sim::store_lanes(sim.captured(i).is1, is1);
      st[i] = static_cast<V3>((is0[l] & 1) | (is1[l] & 1) << 1);
    }
    return st;
  };
  sim::PackedSeqSim one(c);
  sim::SeqSim<sim::WideWord<4>> wide(c);
  const sim::NodeTrace* lanes[] = {&a, nullptr, &b};
  for (std::size_t t = 0; t <= seq.length(); ++t) {
    const Vector3& want = t == 0 ? scan_a : ref_a.states[t - 1];
    one.load_state(a, t, nullptr);
    EXPECT_EQ(one.state_slot(0), want) << "frame " << t;
    if (t > 0) {
      one.load_state_after(a.frame(t - 1), nullptr);
      EXPECT_EQ(one.state_slot(0), want) << "frame " << t;
    }
    wide.reset();
    wide.load_state(lanes, t, nullptr);
    EXPECT_EQ(lane_state(wide, 0), want) << "frame " << t;
    EXPECT_EQ(lane_state(wide, 1), Vector3(c.num_flip_flops(), V3::X));
    EXPECT_EQ(lane_state(wide, 2), t == 0 ? scan_b : ref_b.states[t - 1])
        << "frame " << t;
  }
}

TEST(NodeTrace, ExtendsIncrementally) {
  const netlist::Circuit c = make_circuit(22);
  util::Rng rng(7);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);

  // One shot vs two extends: identical frames.
  sim::NodeTrace whole(c, nullptr);
  whole.extend(seq.frames);
  sim::NodeTrace stepped(c, nullptr);
  stepped.extend(std::span<const Vector3>(seq.frames).first(5));
  stepped.extend(std::span<const Vector3>(seq.frames).subspan(5));
  ASSERT_EQ(stepped.length(), seq.length());
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const std::span<const V3> a = whole.frame(t);
    const std::span<const V3> b = stepped.frame(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
  }
}

}  // namespace
}  // namespace scanc
