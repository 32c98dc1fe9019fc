#include "sim/node_trace.hpp"

#include <algorithm>
#include <cassert>

#include "sim/packed.hpp"
#include "sim/seq_sim.hpp"

namespace scanc::sim {

using netlist::NodeId;

NodeTrace::NodeTrace(const netlist::Circuit& c, const Vector3* scan_in)
    : circuit_(&c),
      stride_(c.num_nodes()),
      initial_state_(c.num_flip_flops(), V3::X) {
  if (scan_in != nullptr) {
    assert(scan_in->size() == initial_state_.size());
    initial_state_ = *scan_in;
  }
}

void NodeTrace::extend(std::span<const Vector3> pi_frames) {
  NodeTrace* const self = this;
  extend_batch({&self, 1}, {&pi_frames, 1});
}

void NodeTrace::extend_batch(
    std::span<NodeTrace* const> traces,
    std::span<const std::span<const Vector3>> pi_frames) {
  assert(traces.size() == pi_frames.size());
  assert(traces.size() <= 64);
  if (traces.empty()) return;
  const netlist::Circuit& c = *traces[0]->circuit_;
  const netlist::CsrSchedule& csr = c.csr();
  const auto pis = c.primary_inputs();
  const auto ffs = c.flip_flops();
  const std::size_t stride = traces[0]->stride_;
  const std::size_t n = traces.size();

  // Trace k rides slot k of a one-lane simulator (constants set, the
  // rest X), resuming from its initial state or the D fanin values of
  // its last recorded frame.
  PackedSeqSim sim(c);
  std::vector<PackedV3> words(ffs.size(), broadcast(V3::X));
  std::size_t max_len = 0;
  for (std::size_t k = 0; k < n; ++k) {
    NodeTrace& tr = *traces[k];
    assert(tr.circuit_ == &c);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      const V3 v = tr.length_ == 0
                       ? tr.initial_state_[i]
                       : tr.value(tr.length_ - 1, csr.fanins(ffs[i])[0]);
      set_slot(words[i], static_cast<unsigned>(k), v);
    }
    tr.vals_.reserve(tr.vals_.size() + pi_frames[k].size() * stride);
    max_len = std::max(max_len, pi_frames[k].size());
  }
  sim.set_ff_values(words);

  words.resize(pis.size());
  for (std::size_t t = 0; t < max_len; ++t) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      words[i] = broadcast(V3::X);
      for (std::size_t k = 0; k < n; ++k) {
        if (t < pi_frames[k].size()) {
          assert(pi_frames[k][t].size() == pis.size());
          set_slot(words[i], static_cast<unsigned>(k), pi_frames[k][t][i]);
        }
      }
    }
    sim.apply_frame_words(words);
    // Record the frame *before* latching, one slot extraction per trace
    // still inside its own sequence.
    for (std::size_t k = 0; k < n; ++k) {
      if (t >= pi_frames[k].size()) continue;
      NodeTrace& tr = *traces[k];
      const std::size_t off = tr.vals_.size();
      tr.vals_.resize(off + stride);
      for (NodeId id = 0; id < stride; ++id) {
        tr.vals_[off + id] = slot(sim.value(id), static_cast<unsigned>(k));
      }
      ++tr.length_;
    }
    sim.latch();
  }
}

}  // namespace scanc::sim
