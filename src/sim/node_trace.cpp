#include "sim/node_trace.hpp"

#include <algorithm>
#include <cassert>

#include "sim/packed.hpp"
#include "sim/seq_sim.hpp"

namespace scanc::sim {

using netlist::GateType;
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

NodeTrace::NodeTrace(const NodeTrace& other, std::size_t prefix_len)
    : circuit_(other.circuit_),
      stride_(other.stride_),
      length_(prefix_len),
      vals_(other.vals_.begin(),
            other.vals_.begin() +
                static_cast<std::ptrdiff_t>(prefix_len * other.stride_)),
      initial_state_(other.initial_state_) {
  assert(prefix_len <= other.length_);
}

Vector3 NodeTrace::state_at_start(std::size_t k) const {
  if (k == 0) return initial_state_;
  const netlist::CsrSchedule& csr = circuit_->csr();
  const auto ffs = circuit_->flip_flops();
  Vector3 st(ffs.size(), V3::X);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    st[i] = value(k - 1, csr.fanins(ffs[i])[0]);
  }
  return st;
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

  // Working values: constants splat across all slots, then each trace's
  // resume state in its own slot.
  std::vector<PackedV3> work(stride, broadcast(V3::X));
  for (NodeId id = 0; id < stride; ++id) {
    if (csr.types[id] == GateType::Const0) work[id] = broadcast(V3::Zero);
    if (csr.types[id] == GateType::Const1) work[id] = broadcast(V3::One);
  }
  std::size_t max_len = 0;
  for (std::size_t k = 0; k < n; ++k) {
    NodeTrace& tr = *traces[k];
    assert(tr.circuit_ == &c);
    const Vector3 st = tr.state_at_start(tr.length_);
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      set_slot(work[ffs[i]], static_cast<unsigned>(k), st[i]);
    }
    tr.vals_.reserve(tr.vals_.size() + pi_frames[k].size() * stride);
    max_len = std::max(max_len, pi_frames[k].size());
  }

  std::vector<PackedV3> next_state(ffs.size());
  for (std::size_t t = 0; t < max_len; ++t) {
    for (std::size_t i = 0; i < pis.size(); ++i) {
      PackedV3 v = broadcast(V3::X);
      for (std::size_t k = 0; k < n; ++k) {
        if (t < pi_frames[k].size()) {
          assert(pi_frames[k][t].size() == pis.size());
          set_slot(v, static_cast<unsigned>(k), pi_frames[k][t][i]);
        }
      }
      work[pis[i]] = v;
    }
    eval_schedule<std::uint64_t>(csr, work.data(), nullptr);
    // Record the frame *before* latching, one slot extraction per trace
    // still inside its own sequence.
    for (std::size_t k = 0; k < n; ++k) {
      if (t >= pi_frames[k].size()) continue;
      NodeTrace& tr = *traces[k];
      const std::size_t off = tr.vals_.size();
      tr.vals_.resize(off + stride);
      for (NodeId id = 0; id < stride; ++id) {
        tr.vals_[off + id] = slot(work[id], static_cast<unsigned>(k));
      }
      ++tr.length_;
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      next_state[i] = work[csr.fanins(ffs[i])[0]];
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) work[ffs[i]] = next_state[i];
  }
}

}  // namespace scanc::sim
