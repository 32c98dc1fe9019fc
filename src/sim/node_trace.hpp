// Fault-free per-node value trace of a scan test.
//
// A NodeTrace records the three-valued fault-free value of *every* node
// at *every* time unit of a test (scan_in, seq), computed once on the
// one-lane PackedSeqSim (one trace per bit-slot, extend_batch) and then
// shared read-only across fault groups and worker threads.  Frame-gated
// fault models (the transition model) read it as their activation
// oracle and reload each active frame's state from it.
//
// Layout: value(t, id) is the value of node `id` after evaluating frame
// t.  Flip-flop ids hold the state *read during* frame t (before the
// latch), so:
//   - PO value at time t                = value(t, po)
//   - captured latch content after t    = value(t, d) where d is the
//                                         FF's D fanin
//   - FF state at the start of frame k  = value(k-1, d), or the scan-in
//                                         state for k == 0
//
// A trace lives for one FaultSimulator query: the query builds it from
// its (masked scan-in, sequence), exactly seq.length() frames long, and
// drops it when the query returns.  extend() appends frames, resuming
// from the state the recorded prefix ends in.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/logic.hpp"
#include "sim/sequence.hpp"

namespace scanc::sim {

class NodeTrace {
 public:
  /// Starts an empty trace from `scan_in` (or the all-X state when
  /// nullptr).  `scan_in` must already be masked for partial scan.
  NodeTrace(const netlist::Circuit& c, const Vector3* scan_in);

  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

  /// Number of recorded frames.
  [[nodiscard]] std::size_t length() const noexcept { return length_; }

  /// Value of node `id` after evaluating frame `t` (see header comment).
  [[nodiscard]] V3 value(std::size_t t, netlist::NodeId id) const {
    return vals_[t * stride_ + id];
  }

  /// All node values of frame `t`, indexed by NodeId.
  [[nodiscard]] std::span<const V3> frame(std::size_t t) const {
    return {vals_.data() + t * stride_, stride_};
  }

  /// The (masked) scan-in state the trace started from; all-X when the
  /// test runs without scan-in.
  [[nodiscard]] const Vector3& initial_state() const noexcept {
    return initial_state_;
  }

  /// Simulates the given PI frames fault-free, appending one recorded
  /// frame each (extend_batch over this trace alone).
  void extend(std::span<const Vector3> pi_frames);

  /// Extends up to 64 traces in one pattern-packed pass: trace k rides
  /// bit-slot k of a PackedV3 word, so every gate is evaluated once for
  /// all of them instead of once per trace.  Each trace resumes from
  /// the state its recorded prefix ends in and appends one frame per
  /// entry of its PI span; ragged lengths are fine (finished slots idle
  /// on all-X inputs and record nothing).  All traces must share one
  /// circuit and be distinct objects.  Bit-identical to calling
  /// extend() on each trace in turn.
  static void extend_batch(
      std::span<NodeTrace* const> traces,
      std::span<const std::span<const Vector3>> pi_frames);

 private:
  const netlist::Circuit* circuit_;
  std::size_t stride_;  ///< num_nodes
  std::size_t length_ = 0;
  std::vector<V3> vals_;  ///< length_ x stride_, frame-major
  Vector3 initial_state_;
};

}  // namespace scanc::sim
