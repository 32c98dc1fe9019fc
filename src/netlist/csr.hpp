// Flat CSR / levelized evaluation schedule for a Circuit.
//
// The per-Node `std::vector` fanin/fanout lists are convenient for
// construction and analysis but hostile to the simulation inner loop:
// every gate evaluation chases a Node pointer and a heap-allocated
// vector.  A CsrSchedule flattens the whole connectivity into four
// arrays (offsets + ids, fanin and fanout side) plus a level-major
// evaluation order, so the hot loops index contiguous memory only.
// It also holds the frame program (FrameOps): the gates compiled, level
// by level, into flat op arrays per kind and arity, which the simulator
// runs without a per-gate branch.  Circuit precomputes both at build()
// time; every simulator runs off them.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/gate.hpp"

namespace scanc::netlist {

// Identical to the alias in circuit.hpp (redeclared so this header does
// not depend on it; circuit.hpp includes us).
using NodeId = std::uint32_t;

class Circuit;

/// Rank value for nodes outside the combinational evaluation order
/// (sources: inputs, flip-flops, constants).
inline constexpr std::uint32_t kNoRank = 0xffffffffu;

/// One op of the frame program: word indices into a rail array (node n's
/// is0 word at 2n, is1 at 2n + 1).  An AND-family op ORs its operands'
/// words at `in` and ANDs those at `in ^ 1` into `out` and `out ^ 1`, so
/// OR-type gates and inverted outputs are rail swaps baked into the
/// indices.  An XOR op reads each operand's is0 word at `in`.
template <std::size_t N>
struct RailOp {
  std::uint32_t out;
  std::array<std::uint32_t, N> in;
};

/// The gates as flat op arrays per kind: level l's ops of kind k end at
/// ends[l - 1][k] and start where level l - 1's end.
struct FrameOps {
  enum Kind : std::size_t { kAnd1, kAnd2, kAnd4, kXor2, kTail, kNumKinds };
  std::vector<RailOp<1>> and1;  ///< BUF/NOT, 1-input AND family
  std::vector<RailOp<2>> and2;  ///< 2-input AND family
  std::vector<RailOp<4>> and4;  ///< 3-4 inputs, the last one repeated
  std::vector<RailOp<2>> xor2;  ///< 2-input XOR/XNOR
  std::vector<NodeId> tail;     ///< the rest (wide_eval_gate_at)
  std::vector<std::array<std::size_t, kNumKinds>> ends;
};

/// Flat connectivity + levelized evaluation order.  All vectors are
/// indexed by NodeId except `order`/`level_offsets`, which describe the
/// combinational evaluation schedule.
struct CsrSchedule {
  /// Gate type per node (dense copy of Node::type for cache locality).
  std::vector<GateType> types;
  /// fanins of node `n` = fanin_ids[fanin_offsets[n] .. fanin_offsets[n+1])
  std::vector<std::uint32_t> fanin_offsets;
  std::vector<NodeId> fanin_ids;
  /// fanouts of node `n`, same layout.
  std::vector<std::uint32_t> fanout_offsets;
  std::vector<NodeId> fanout_ids;
  /// Combinational gates in level-major order (level 1 first; ascending
  /// NodeId within a level).  A valid topological order: every fanin of
  /// a level-l gate has level < l.
  std::vector<NodeId> order;
  /// Gates of level l (1-based) occupy
  /// order[level_offsets[l-1] .. level_offsets[l]).  Size depth()+1.
  std::vector<std::uint32_t> level_offsets;
  /// Position of each node in `order`; kNoRank for sources.
  std::vector<std::uint32_t> rank;
  /// The frame program over `order`'s levels.
  FrameOps ops;

  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return types.size();
  }

  [[nodiscard]] std::span<const NodeId> fanins(NodeId n) const {
    return {fanin_ids.data() + fanin_offsets[n],
            fanin_ids.data() + fanin_offsets[n + 1]};
  }

  [[nodiscard]] std::span<const NodeId> fanouts(NodeId n) const {
    return {fanout_ids.data() + fanout_offsets[n],
            fanout_ids.data() + fanout_offsets[n + 1]};
  }

  /// Flattens `c`'s connectivity.  Called once from CircuitBuilder.
  [[nodiscard]] static CsrSchedule build(const Circuit& c);
};

}  // namespace scanc::netlist
