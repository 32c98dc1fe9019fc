#include "netlist/csr.hpp"

#include <algorithm>
#include <numeric>

#include "netlist/circuit.hpp"

namespace scanc::netlist {

namespace {

/// Appends gate `id` to the frame program as one op of its kind.
void emit_op(CsrSchedule& s, NodeId id) {
  const GateType t = s.types[id];
  const std::span<const NodeId> fi = s.fanins(id);
  const std::size_t n = fi.size();
  const bool is_xor = t == GateType::Xor || t == GateType::Xnor;
  if ((is_xor && n != 2) || n > 4) {
    s.ops.tail.push_back(id);
    return;
  }
  // OR-type gates read and write the rails swapped; inverting gates swap
  // the output once more.
  const std::uint32_t swap = t == GateType::Or || t == GateType::Nor;
  const std::uint32_t out = 2 * id + (swap ^ is_inverting(t));
  const auto in = [&](std::size_t i) {
    return 2 * fi[std::min(i, n - 1)] + swap;
  };
  if (is_xor) {
    s.ops.xor2.push_back({out, {in(0), in(1)}});
  } else if (n == 1) {
    s.ops.and1.push_back({out, {in(0)}});
  } else if (n == 2) {
    s.ops.and2.push_back({out, {in(0), in(1)}});
  } else {
    s.ops.and4.push_back({out, {in(0), in(1), in(2), in(3)}});
  }
}

}  // namespace

CsrSchedule CsrSchedule::build(const Circuit& c) {
  const std::size_t n = c.num_nodes();
  CsrSchedule s;
  s.types.reserve(n);
  for (NodeId id = 0; id < n; ++id) s.types.push_back(c.node(id).type);

  s.fanin_offsets.assign(n + 1, 0);
  s.fanout_offsets.assign(n + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    s.fanin_offsets[id + 1] =
        s.fanin_offsets[id] +
        static_cast<std::uint32_t>(c.node(id).fanins.size());
    s.fanout_offsets[id + 1] =
        s.fanout_offsets[id] +
        static_cast<std::uint32_t>(c.node(id).fanouts.size());
  }
  s.fanin_ids.reserve(s.fanin_offsets.back());
  s.fanout_ids.reserve(s.fanout_offsets.back());
  for (NodeId id = 0; id < n; ++id) {
    const Node& node = c.node(id);
    s.fanin_ids.insert(s.fanin_ids.end(), node.fanins.begin(),
                       node.fanins.end());
    s.fanout_ids.insert(s.fanout_ids.end(), node.fanouts.begin(),
                        node.fanouts.end());
  }

  // Level-major order via counting sort over levels (comb gates have
  // level >= 1; ascending NodeId within a level because the node scan is
  // ascending).
  const std::uint32_t depth = c.depth();
  s.level_offsets.assign(depth + 1, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (is_combinational(s.types[id])) {
      // Gate of level l is counted at index l; the prefix sum then makes
      // level_offsets[l-1] the start of level l's slice.
      ++s.level_offsets[c.node(id).level];
    }
  }
  std::partial_sum(s.level_offsets.begin(), s.level_offsets.end(),
                   s.level_offsets.begin());
  s.order.assign(c.num_gates(), 0);
  s.rank.assign(n, kNoRank);
  std::vector<std::uint32_t> cursor(s.level_offsets.begin(),
                                    s.level_offsets.end());
  for (NodeId id = 0; id < n; ++id) {
    if (!is_combinational(s.types[id])) continue;
    const std::uint32_t pos = cursor[c.node(id).level - 1]++;
    s.order[pos] = id;
    s.rank[id] = pos;
  }

  for (std::uint32_t l = 0; l < depth; ++l) {
    for (std::uint32_t r = s.level_offsets[l]; r < s.level_offsets[l + 1];
         ++r) {
      emit_op(s, s.order[r]);
    }
    s.ops.ends.push_back({s.ops.and1.size(), s.ops.and2.size(),
                          s.ops.and4.size(), s.ops.xor2.size(),
                          s.ops.tail.size()});
  }
  return s;
}

}  // namespace scanc::netlist
