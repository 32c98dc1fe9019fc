// Flat CSR / levelized evaluation schedule for a Circuit.
//
// The per-Node `std::vector` fanin/fanout lists are convenient for
// construction and analysis but hostile to the simulation inner loop:
// every gate evaluation chases a Node pointer and a heap-allocated
// vector.  A CsrSchedule flattens the whole connectivity into four
// arrays (offsets + ids, fanin and fanout side) plus a level-major
// evaluation order, so the hot loops index contiguous memory only.
// Circuit precomputes one at build() time; every simulator runs off it.
#pragma once

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
