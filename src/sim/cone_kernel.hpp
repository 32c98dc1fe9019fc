// Cone-restricted bit-parallel simulation kernel.
//
// A fault group of <= 63 stuck-line injections can only perturb the
// nodes in the union fanout cone of its injection sites — the *sequential*
// closure: combinational fanout cones plus every flip-flop they reach,
// whose state divergence re-enters the logic on later frames.  Every
// node outside that cone is slot-uniform (all 64 slots hold the
// fault-free value), so evaluating it 64 slots wide is pure waste.
//
// ConePlan precomputes, per group, the in-cone evaluation schedule (a
// compacted slice of the circuit's level-major CSR order), the in-cone
// flip-flops and primary outputs, and the *boundary*: the out-of-cone
// fanins whose (fault-free) values the in-cone logic reads.  ConeSim
// then simulates only the cone, seeding boundary fanins each frame by
// broadcasting the shared fault-free NodeTrace value.
//
// Equivalence: in the full kernel an out-of-cone node's packed word is
// the broadcast of its fault-free value, which is exactly what the
// boundary seeding installs — so every in-cone word ConeSim computes is
// bit-identical to the full kernel's.  Out-of-cone observation points
// never contribute detections (slot-uniform words have no slot that
// differs from slot 0), so detection masks restricted to in-cone
// POs/FFs are also bit-identical.
//
// Frame skipping: while every in-cone FF (read value *and* captured
// latch content) is slot-uniform ("clean") and no injection is
// activated at frame t (the fault-free value of every injected line
// already equals its stuck value), frame t changes nothing — all slots
// remain fault-free — and is skipped entirely.  On the next simulated
// frame the cone FF values are re-seeded from the trace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/injection.hpp"
#include "sim/node_trace.hpp"
#include "sim/packed.hpp"
#include "sim/seq_sim.hpp"

namespace scanc::sim {

/// One injection site: the line a fault group member occupies.
struct ConeSite {
  netlist::NodeId node = netlist::kNoNode;
  std::int32_t pin = kStemPin;  ///< fanin pin, or kStemPin for the stem
  bool stuck_one = false;
};

/// Per-group cone precomputation.  Rebuild (not reallocate) per group:
/// build() clears and refills every vector.
class ConePlan {
 public:
  /// Computes the sequential fanout-cone closure of `sites` over `c`.
  void build(const netlist::Circuit& c, std::span<const ConeSite> sites);

  /// In-cone combinational gates, in the circuit's level-major CSR
  /// order (a valid topological order of the cone).
  [[nodiscard]] std::span<const netlist::NodeId> eval() const noexcept {
    return eval_;
  }

  /// Out-of-cone (or source) nodes the in-cone logic reads; seeded from
  /// the fault-free trace every simulated frame.  Includes in-cone
  /// sources (injected PIs/constants), which are seeded then re-injected.
  [[nodiscard]] std::span<const netlist::NodeId> boundary() const noexcept {
    return boundary_;
  }

  /// In-cone flip-flops: node ids and their positions in flip_flops().
  [[nodiscard]] std::span<const netlist::NodeId> cone_ffs() const noexcept {
    return cone_ffs_;
  }
  [[nodiscard]] std::span<const std::uint32_t> cone_ff_pos() const noexcept {
    return cone_ff_pos_;
  }

  /// In-cone primary outputs (node ids) — the only POs whose packed
  /// words can differ from slot 0.
  [[nodiscard]] std::span<const netlist::NodeId> cone_pos() const noexcept {
    return cone_pos_;
  }

  /// True if `id` is in the cone (including injected sources).
  [[nodiscard]] bool in_cone(netlist::NodeId id) const {
    return in_cone_[id] != 0;
  }

  /// Injected lines for activation checks: line i is stuck at
  /// act_stuck_one()[i] and carries the fault-free value of node
  /// act_lines()[i].
  [[nodiscard]] std::span<const netlist::NodeId> act_lines() const noexcept {
    return act_lines_;
  }
  [[nodiscard]] std::span<const char> act_stuck_one() const noexcept {
    return act_stuck_one_;
  }

 private:
  std::vector<netlist::NodeId> eval_;
  std::vector<netlist::NodeId> boundary_;
  std::vector<netlist::NodeId> cone_ffs_;
  std::vector<std::uint32_t> cone_ff_pos_;
  std::vector<netlist::NodeId> cone_pos_;
  std::vector<char> in_cone_;
  std::vector<netlist::NodeId> act_lines_;
  std::vector<char> act_stuck_one_;
  std::vector<netlist::NodeId> bfs_;  ///< scratch
};

/// Cone-restricted counterpart of PackedSeqSim.  One instance per
/// worker; begin() rebinds it to a (plan, injections, trace) triple for
/// one test, eval_frame()/latch() step through the frames.
class ConeSim {
 public:
  explicit ConeSim(const netlist::Circuit& c);

  /// Binds the engine to one test run.  `plan`, `inj` and `trace` must
  /// outlive the run; `trace` must cover every frame stepped.
  void begin(const ConePlan& plan, const PackedInjectionMap& inj,
             const NodeTrace& trace);

  /// Evaluates frame `t`.  Returns false when the frame was skipped
  /// (all slots provably fault-free and no injection activated): node
  /// values then equal the fault-free trace and no observation point
  /// can detect anything.  When true, in-cone words are bit-identical
  /// to a full-kernel apply_frame.
  bool eval_frame(std::size_t t);

  /// Latches the in-cone flip-flops (only valid after eval_frame
  /// returned true for this frame) and updates clean().
  void latch();

  /// True while every in-cone FF read value and captured content is
  /// slot-uniform — i.e. all machines are in the fault-free state.
  [[nodiscard]] bool clean() const noexcept { return clean_; }

  /// Packed word of an in-cone node (or boundary node) after
  /// eval_frame.
  [[nodiscard]] const PackedV3& value(netlist::NodeId id) const {
    return values_[id];
  }

  /// Captured latch content of FF position `i` (flip_flops() order).
  /// Valid for in-cone FFs when !clean(); fault-free otherwise.
  [[nodiscard]] const PackedV3& captured(std::size_t i) const {
    return captured_[i];
  }

 private:
  const netlist::Circuit* circuit_;
  const ConePlan* plan_ = nullptr;
  const PackedInjectionMap* inj_ = nullptr;
  const NodeTrace* trace_ = nullptr;
  std::vector<PackedV3> values_;
  std::vector<PackedV3> captured_;
  std::vector<PackedV3> next_;  ///< scratch for simultaneous latch
  bool clean_ = true;
};

}  // namespace scanc::sim
