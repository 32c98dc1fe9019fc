#include "sim/seq_sim.hpp"

#include <cassert>

namespace scanc::sim {

using netlist::Circuit;
using netlist::GateType;
using netlist::Node;
using netlist::NodeId;

// The one-lane simulator, compiled once at the baseline target flags.
template class SeqSim<std::uint64_t>;

Trace simulate_fault_free(const Circuit& c, const Vector3* scan_in,
                          const Sequence& seq) {
  PackedSeqSim sim(c);
  sim.reset();
  if (scan_in != nullptr) sim.load_state(*scan_in);
  Trace trace;
  trace.po_frames.reserve(seq.length());
  trace.states.reserve(seq.length());
  for (const Vector3& pi : seq.frames) {
    sim.apply_frame(pi);
    trace.po_frames.push_back(sim.outputs_slot(0));
    sim.latch();
    trace.states.push_back(sim.state_slot(0));
  }
  return trace;
}

Trace simulate_fault_free_scalar(const Circuit& c, const Vector3* scan_in,
                                 const Sequence& seq) {
  std::vector<V3> values(c.num_nodes(), V3::X);
  for (NodeId id = 0; id < c.num_nodes(); ++id) {
    if (c.node(id).type == GateType::Const0) values[id] = V3::Zero;
    if (c.node(id).type == GateType::Const1) values[id] = V3::One;
  }
  const auto ffs = c.flip_flops();
  if (scan_in != nullptr) {
    assert(scan_in->size() == ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) values[ffs[i]] = (*scan_in)[i];
  }

  Trace trace;
  std::vector<V3> fanin_scratch;
  std::vector<V3> next_state(ffs.size());
  for (const Vector3& pi : seq.frames) {
    const auto pis = c.primary_inputs();
    assert(pi.size() == pis.size());
    for (std::size_t i = 0; i < pis.size(); ++i) values[pis[i]] = pi[i];
    for (const NodeId id : c.topo_order()) {
      const Node& n = c.node(id);
      fanin_scratch.clear();
      for (const NodeId f : n.fanins) fanin_scratch.push_back(values[f]);
      values[id] = eval_gate_scalar(n.type, fanin_scratch);
    }
    Vector3 po(c.num_outputs(), V3::X);
    for (std::size_t i = 0; i < c.primary_outputs().size(); ++i) {
      po[i] = values[c.primary_outputs()[i]];
    }
    trace.po_frames.push_back(std::move(po));
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      next_state[i] = values[c.node(ffs[i]).fanins[0]];
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) values[ffs[i]] = next_state[i];
    Vector3 st(ffs.size(), V3::X);
    for (std::size_t i = 0; i < ffs.size(); ++i) st[i] = values[ffs[i]];
    trace.states.push_back(std::move(st));
  }
  return trace;
}

}  // namespace scanc::sim
