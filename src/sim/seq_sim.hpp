// Bit-parallel sequential simulation engine.
//
// SeqSim<W> evaluates a Circuit one clock frame at a time with one
// WideV3<W> per node — kWordLanes<W> independent 64-slot simulations
// advancing in lockstep — and optional stuck-line injections
// (sim/injection.hpp).  It is the one engine underneath the fault-free
// simulator, the parallel-fault simulator and the wide batch passes; the
// 64-bit word is its one-lane case (PackedSeqSim).
//
// Frame protocol:
//   1. reset(inj)               — all state X, constants set
//   2. load_state(s, inj)       — optional scan-in (overwrites FF values)
//   3. for each time unit t:
//        apply_frame(pi_t, inj) — set PIs, evaluate combinational logic
//        ... observe PO values ...
//        latch(inj)             — sample next state into the FFs
//   4. ... observe FF values (scan-out) ...
//
// Stimulus is either broadcast (one Vector3 for every slot of every
// lane; slots only diverge through injections) or per lane (one Vector3
// per lane, nullptr = leave the lane alone), so lanes can carry different
// scan tests (pattern-parallel) or the same test (fault-parallel).
//
// Bit-identity: every operation is lane-wise, so lane l evolves exactly
// as a one-lane pass fed lane l's stimulus and injection masks.
//
// The member definitions live in this header so the wide batch-engine
// TUs can instantiate their words; the one-lane instance is explicitly
// instantiated once, in seq_sim.cpp at the baseline target flags (the
// extern template below keeps the -mavx2/-mavx512f TUs from emitting a
// copy the linker might prefer).
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/injection.hpp"
#include "sim/packed.hpp"
#include "sim/sequence.hpp"
#include "sim/wide.hpp"

namespace scanc::sim {

/// Evaluates the combinational gates in the CSR schedule's level-major
/// order into `values`, with branch and stem injections — the one gate
/// loop of SeqSim and of the fault-free trace builder.
template <class W>
void eval_schedule(const netlist::CsrSchedule& csr, WideV3<W>* values,
                   const InjectionMap<W>* inj) {
  for (const netlist::NodeId id : csr.order) {
    const std::span<const netlist::NodeId> fi = csr.fanins(id);
    WideV3<W> out;
    if (inj == nullptr || !inj->any(id)) {
      // Fast path: no injections touch this gate.
      out = wide_eval_gate_at<W>(csr.types[id], fi.size(),
                                 [&](std::size_t i) { return values[fi[i]]; });
    } else {
      // Slow path: gather fanins with branch injections, then apply the
      // stem injections to the computed output.
      const std::span<const Injection<W>> injs = inj->at(id);
      out = wide_eval_gate_at<W>(
          csr.types[id], fi.size(), [&](std::size_t i) {
            return apply_pin(values[fi[i]], static_cast<int>(i), injs);
          });
      out = apply_stem(out, injs);
    }
    values[id] = out;
  }
}

template <class W>
class SeqSim {
 public:
  using Value = WideV3<W>;
  using Injections = InjectionMap<W>;
  static constexpr std::size_t kLanes = kWordLanes<W>;

  explicit SeqSim(const netlist::Circuit& circuit);

  /// The simulated circuit.
  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

  /// Sets every FF to X, constants to their values, and everything else
  /// to X.  Stem injections on sources (constants, PIs, FFs) are applied.
  void reset(const Injections* inj = nullptr);

  /// Overwrites the FF values with `state` (indexed in flip_flops()
  /// order) in every lane, then applies FF stem injections.  Models
  /// scan-in.
  void load_state(const Vector3& state, const Injections* inj = nullptr);

  /// Per-lane scan-in: lane l's FFs take states[l] (nullptr leaves the
  /// lane's current values untouched — an all-X lane after reset()).
  /// Stem injections are re-applied to the whole word; injection is
  /// idempotent, so untouched lanes keep their already-forced slots.
  void load_state(std::span<const Vector3* const> states,
                  const Injections* inj);

  /// Sets the PI values (broadcast; PI stem injections applied) and
  /// evaluates all combinational gates in topological order with branch
  /// and stem injections.
  void apply_frame(const Vector3& pi, const Injections* inj = nullptr);

  /// Per-lane PI stimulus (nullptr lane = all-X inputs), then the same
  /// evaluation.
  void apply_frame(std::span<const Vector3* const> pis_per_lane,
                   const Injections* inj);

  /// Samples every FF's next-state (its fanin value, with branch
  /// injections on the FF's data pin) and installs it as the new FF value
  /// (with FF stem injections).  All FFs update simultaneously.
  ///
  /// Fault-model convention (standard full-scan PPI/PPO treatment): a
  /// stem fault on the FF output (Q) corrupts the value *read* by the
  /// logic but not the captured latch content, so scan-out — which
  /// observes the captured content — sees the clean capture.  Faults on
  /// the D side corrupt the capture itself and are therefore directly
  /// scan-observable.
  void latch(const Injections* inj = nullptr);

  /// Captured latch content of FF index `i` (flip_flops() order) as of the
  /// last latch()/load_state(): the value scan-out observes.
  [[nodiscard]] const Value& captured(std::size_t i) const {
    return captured_[i];
  }

  /// Current value of a node.
  [[nodiscard]] const Value& value(netlist::NodeId id) const {
    return values_[id];
  }

  /// Copies the raw FF values (as the logic reads them, i.e. with any
  /// injections already applied) into `out`; size = num_flip_flops().
  /// Together with set_ff_values this lets a caller suspend and resume a
  /// simulation (incremental fault simulation sessions).
  void get_ff_values(std::span<Value> out) const;

  /// Restores raw FF values previously saved by get_ff_values.
  void set_ff_values(std::span<const Value> vals);

  /// Current state (FF values) / PO values of one slot as a scalar
  /// vector (one-lane word only).
  [[nodiscard]] Vector3 state_slot(unsigned slot_bit) const;
  [[nodiscard]] Vector3 outputs_slot(unsigned slot_bit) const;

 private:
  /// Installs a source value with its stem injections.
  void set_source(netlist::NodeId id, Value v, const Injections* inj) {
    if (inj && inj->any(id)) v = apply_stem(v, inj->at(id));
    values_[id] = v;
  }
  /// Evaluates the combinational logic over the current source values
  /// (level-major CSR schedule: flat arrays on the inner loop).
  void eval_gates(const Injections* inj) {
    const netlist::CsrSchedule& csr = circuit_->csr();
    eval_schedule(csr, values_.data(), inj);
  }

  const netlist::Circuit* circuit_;
  std::vector<Value> values_;
  std::vector<Value> captured_;    // clean latch contents (scan-out view)
  std::vector<Value> next_state_;  // scratch for simultaneous latch
};

/// The one-lane (64-slot) simulator.
using PackedSeqSim = SeqSim<std::uint64_t>;

template <class W>
SeqSim<W>::SeqSim(const netlist::Circuit& circuit)
    : circuit_(&circuit),
      values_(circuit.num_nodes(), wide_broadcast<W>(V3::X)),
      captured_(circuit.num_flip_flops(), wide_broadcast<W>(V3::X)),
      next_state_(circuit.num_flip_flops()) {}

template <class W>
void SeqSim<W>::reset(const Injections* inj) {
  using netlist::GateType;
  for (netlist::NodeId id = 0; id < values_.size(); ++id) {
    const GateType t = circuit_->node(id).type;
    Value v = wide_broadcast<W>(V3::X);
    if (t == GateType::Const0) v = wide_broadcast<W>(V3::Zero);
    if (t == GateType::Const1) v = wide_broadcast<W>(V3::One);
    if (netlist::is_source(t)) {
      set_source(id, v, inj);
    } else {
      values_[id] = v;
    }
  }
  for (auto& cap : captured_) cap = wide_broadcast<W>(V3::X);
}

template <class W>
void SeqSim<W>::load_state(const Vector3& state, const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  assert(state.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    // Scan-in stores the clean value; the logic reads through the
    // (possibly stuck) Q.
    captured_[i] = wide_broadcast<W>(state[i]);
    set_source(ffs[i], captured_[i], inj);
  }
}

template <class W>
void SeqSim<W>::load_state(std::span<const Vector3* const> states,
                           const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  assert(states.size() <= kLanes);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    Value cap = captured_[i];
    Value v = values_[ffs[i]];
    for (std::size_t l = 0; l < states.size(); ++l) {
      if (states[l] == nullptr) continue;
      assert(states[l]->size() == ffs.size());
      const V3 s = (*states[l])[i];
      set_lane_broadcast(cap, l, s);
      set_lane_broadcast(v, l, s);
    }
    captured_[i] = cap;
    set_source(ffs[i], v, inj);
  }
}

template <class W>
void SeqSim<W>::apply_frame(const Vector3& pi, const Injections* inj) {
  const auto pis = circuit_->primary_inputs();
  assert(pi.size() == pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) {
    set_source(pis[i], wide_broadcast<W>(pi[i]), inj);
  }
  eval_gates(inj);
}

template <class W>
void SeqSim<W>::apply_frame(std::span<const Vector3* const> pis_per_lane,
                            const Injections* inj) {
  const auto pis = circuit_->primary_inputs();
  assert(pis_per_lane.size() <= kLanes);
  for (std::size_t i = 0; i < pis.size(); ++i) {
    Value v = wide_broadcast<W>(V3::X);
    for (std::size_t l = 0; l < pis_per_lane.size(); ++l) {
      if (pis_per_lane[l] == nullptr) continue;
      assert(pis_per_lane[l]->size() == pis.size());
      set_lane_broadcast(v, l, (*pis_per_lane[l])[i]);
    }
    set_source(pis[i], v, inj);
  }
  eval_gates(inj);
}

template <class W>
void SeqSim<W>::latch(const Injections* inj) {
  const netlist::CsrSchedule& csr = circuit_->csr();
  const auto ffs = circuit_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    Value v = values_[csr.fanins(ffs[i])[0]];
    if (inj && inj->any(ffs[i])) {
      // Branch fault on the D input corrupts the captured value itself.
      v = apply_pin(v, 0, inj->at(ffs[i]));
    }
    next_state_[i] = v;
  }
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    captured_[i] = next_state_[i];
    // Stem fault on Q corrupts only what the logic reads next frame.
    set_source(ffs[i], next_state_[i], inj);
  }
}

template <class W>
void SeqSim<W>::get_ff_values(std::span<Value> out) const {
  const auto ffs = circuit_->flip_flops();
  assert(out.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) out[i] = values_[ffs[i]];
}

template <class W>
void SeqSim<W>::set_ff_values(std::span<const Value> vals) {
  const auto ffs = circuit_->flip_flops();
  assert(vals.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) values_[ffs[i]] = vals[i];
}

template <class W>
Vector3 SeqSim<W>::state_slot(unsigned slot_bit) const {
  const auto ffs = circuit_->flip_flops();
  Vector3 s(ffs.size(), V3::X);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    s[i] = slot(values_[ffs[i]], slot_bit);
  }
  return s;
}

template <class W>
Vector3 SeqSim<W>::outputs_slot(unsigned slot_bit) const {
  const auto pos = circuit_->primary_outputs();
  Vector3 s(pos.size(), V3::X);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    s[i] = slot(values_[pos[i]], slot_bit);
  }
  return s;
}

extern template class SeqSim<std::uint64_t>;

/// Result of a fault-free sequential simulation.
struct Trace {
  /// po_frames[t] = PO values after applying frame t.
  std::vector<Vector3> po_frames;
  /// states[t] = FF values after latching frame t (states[0] follows the
  /// first frame).  The final entry is the scan-out state.
  std::vector<Vector3> states;
};

/// Simulates `seq` fault-free from `scan_in` (or from the all-X state if
/// scan_in is nullptr), recording PO values per frame and the state after
/// every latch.  Reference semantics for the whole library.
[[nodiscard]] Trace simulate_fault_free(const netlist::Circuit& c,
                                        const Vector3* scan_in,
                                        const Sequence& seq);

/// Same semantics as simulate_fault_free, computed with the scalar V3
/// engine.  Used as an independent golden model in tests.
[[nodiscard]] Trace simulate_fault_free_scalar(const netlist::Circuit& c,
                                               const Vector3* scan_in,
                                               const Sequence& seq);

}  // namespace scanc::sim
