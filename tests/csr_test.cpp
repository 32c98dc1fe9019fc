// Unit tests for the flat simulation kernel substrate: the CSR/levelized
// schedule (netlist/csr.hpp) and the shared fault-free NodeTrace and its
// prefix-aware cache (sim/node_trace.hpp, sim/trace_cache.hpp).  The
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
#include "sim/trace_cache.hpp"
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
    // state_at_start(t + 1) is the state after latching frame t.
    const Vector3 st = trace.state_at_start(t + 1);
    EXPECT_EQ(st, packed.states[t]);
    EXPECT_EQ(st, scalar.states[t]);
  }
  EXPECT_EQ(trace.state_at_start(0), scan_in);
  EXPECT_EQ(trace.initial_state(), scan_in);
}

TEST(NodeTrace, ExtendsIncrementally) {
  const netlist::Circuit c = make_circuit(22);
  util::Rng rng(7);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 12, rng);

  // One shot vs two extends vs a prefix copy + extend: identical frames.
  sim::NodeTrace whole(c, nullptr);
  whole.extend(seq.frames);
  sim::NodeTrace stepped(c, nullptr);
  stepped.extend(std::span<const Vector3>(seq.frames).first(5));
  sim::NodeTrace copied(stepped, 5);
  stepped.extend(std::span<const Vector3>(seq.frames).subspan(5));
  copied.extend(std::span<const Vector3>(seq.frames).subspan(5));
  ASSERT_EQ(stepped.length(), seq.length());
  ASSERT_EQ(copied.length(), seq.length());
  for (std::size_t t = 0; t < seq.length(); ++t) {
    const std::span<const V3> a = whole.frame(t);
    const std::span<const V3> b = stepped.frame(t);
    const std::span<const V3> d = copied.frame(t);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    EXPECT_TRUE(std::equal(a.begin(), a.end(), d.begin()));
  }
}

// --- TraceCache -------------------------------------------------------

TEST(TraceCache, HitExtendAndPartialReuse) {
  const netlist::Circuit c = make_circuit(31);
  util::Rng rng(5);
  const Vector3 scan_in = sim::random_vector(c.num_flip_flops(), rng);
  Sequence seq = sim::random_sequence(c.num_inputs(), 10, rng);

  sim::TraceCache cache(c);
  const auto t1 = cache.get(&scan_in, seq);
  EXPECT_EQ(cache.misses(), 1u);
  ASSERT_GE(t1->length(), seq.length());

  // Exact repeat: same trace object, no new work.
  const auto t2 = cache.get(&scan_in, seq);
  EXPECT_EQ(t2.get(), t1.get());
  EXPECT_EQ(cache.hits(), 1u);

  // Prefix query: the longer cached trace serves it unchanged.
  Sequence shorter = seq;
  shorter.frames.resize(6);
  const auto t3 = cache.get(&scan_in, shorter);
  EXPECT_EQ(t3.get(), t1.get());
  EXPECT_EQ(cache.hits(), 2u);

  // Extension: cached trace is a prefix of the query.  The outstanding
  // shared_ptrs must keep seeing the old frames (copy-on-write).
  Sequence longer = seq;
  util::Rng rng2(6);
  for (int i = 0; i < 4; ++i) {
    longer.frames.push_back(sim::random_vector(c.num_inputs(), rng2));
  }
  const auto t4 = cache.get(&scan_in, longer);
  EXPECT_EQ(cache.extensions(), 1u);
  ASSERT_GE(t4->length(), longer.length());
  EXPECT_EQ(t1->length(), seq.length());

  // Partial overlap: same first 6 frames, divergent tail -> the common
  // prefix is copied, only the tail is re-simulated.
  Sequence branched = seq;
  branched.frames.resize(6);
  for (int i = 0; i < 5; ++i) {
    branched.frames.push_back(sim::random_vector(c.num_inputs(), rng2));
  }
  const auto t5 = cache.get(&scan_in, branched);
  EXPECT_EQ(cache.partial_reuses(), 1u);
  const sim::Trace ref = sim::simulate_fault_free(c, &scan_in, branched);
  const std::span<const NodeId> pos = c.primary_outputs();
  for (std::size_t t = 0; t < branched.length(); ++t) {
    for (std::size_t j = 0; j < pos.size(); ++j) {
      EXPECT_EQ(t5->value(t, pos[j]), ref.po_frames[t][j]);
    }
  }
}

TEST(TraceCache, DistinguishesScanStates) {
  const netlist::Circuit c = make_circuit(32);
  util::Rng rng(8);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 8, rng);
  Vector3 a = sim::random_vector(c.num_flip_flops(), rng);
  Vector3 b = a;
  b[0] = b[0] == V3::One ? V3::Zero : V3::One;

  sim::TraceCache cache(c);
  const auto ta = cache.get(&a, seq);
  const auto tb = cache.get(&b, seq);
  const auto tn = cache.get(nullptr, seq);
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_NE(ta.get(), tb.get());
  EXPECT_NE(ta.get(), tn.get());
  EXPECT_EQ(ta->initial_state(), a);
  EXPECT_EQ(tb->initial_state(), b);
}

TEST(TraceCache, EvictsLeastRecentlyUsed) {
  const netlist::Circuit c = make_circuit(33);
  util::Rng rng(9);
  const Sequence seq = sim::random_sequence(c.num_inputs(), 4, rng);
  std::vector<Vector3> keys;
  for (int i = 0; i < 3; ++i) {
    keys.push_back(sim::random_vector(c.num_flip_flops(), rng));
  }

  sim::TraceCache cache(c, /*capacity=*/2);
  (void)cache.get(&keys[0], seq);
  (void)cache.get(&keys[1], seq);
  (void)cache.get(&keys[0], seq);  // refresh key 0
  (void)cache.get(&keys[2], seq);  // evicts key 1
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.get(&keys[0], seq);
  EXPECT_EQ(cache.hits(), 2u);
  (void)cache.get(&keys[1], seq);  // was evicted -> miss
  EXPECT_EQ(cache.misses(), 4u);
}

}  // namespace
}  // namespace scanc
