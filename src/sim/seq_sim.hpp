// Bit-parallel sequential simulation engine.
//
// SeqSim<W> evaluates a Circuit one clock frame at a time with one
// WideV3<W> per node — kWordLanes<W> independent 64-slot simulations
// advancing in lockstep — and optional stuck-line injections
// (sim/injection.hpp).  It is the one engine underneath the fault-free
// simulator, the parallel-fault simulator and the wide batch passes; the
// 64-bit word is its one-lane case (PackedSeqSim).
//
// The node values live in a rail array (node n's is0 word at 2n, its
// is1 word at 2n + 1), which the frame program (netlist::FrameOps)
// indexes directly: eval_schedule runs, per level, one branch-free loop
// per op kind and then that level's injection patches.
//
// Frame protocol:
//   1. reset(inj)               — all state X, constants set (construction
//                                 already leaves the simulator reset)
//   2. load_state(s, inj)       — optional scan-in (overwrites FF values),
//                                 or the fault-free state entering a frame
//                                 of a NodeTrace, read in place
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

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"
#include "sim/injection.hpp"
#include "sim/node_trace.hpp"
#include "sim/packed.hpp"
#include "sim/sequence.hpp"
#include "sim/wide.hpp"

namespace scanc::sim {

/// Node `id`'s value in a rail array (is0 word at 2 id, is1 at 2 id + 1).
template <class W>
[[nodiscard]] inline WideV3<W> rail_value(const W* rails,
                                          netlist::NodeId id) noexcept {
  return {rails[2 * id], rails[2 * id + 1]};
}
template <class W>
inline void set_rail_value(W* rails, netlist::NodeId id,
                           const WideV3<W>& v) noexcept {
  rails[2 * id] = v.is0;
  rails[2 * id + 1] = v.is1;
}

/// Gate `id` evaluated generically, fanin i read through the branch
/// patches in [b, e) on pin i.
template <class W>
[[nodiscard]] WideV3<W> eval_gate(const netlist::CsrSchedule& csr,
                                  const W* rails, netlist::NodeId id,
                                  const LinePatch<W>* b,
                                  const LinePatch<W>* e) {
  const std::span<const netlist::NodeId> fi = csr.fanins(id);
  return wide_eval_gate_at<W>(csr.types[id], fi.size(), [&](std::size_t i) {
    WideV3<W> x = rail_value(rails, fi[i]);
    for (const LinePatch<W>* p = b; p != e; ++p) {
      if (p->pin == static_cast<std::int32_t>(i)) x = w_inject(x, p->masks);
    }
    return x;
  });
}

/// Runs AND-family ops [begin, end): OR over the operands' words at `in`,
/// AND over those at `in ^ 1`.
template <class W, std::size_t N>
inline void run_and_ops(const std::vector<netlist::RailOp<N>>& ops,
                        std::size_t begin, std::size_t end, W* rails) {
  for (std::size_t k = begin; k < end; ++k) {
    const netlist::RailOp<N>& op = ops[k];
    W lo = rails[op.in[0]];
    W hi = rails[op.in[0] ^ 1];
    for (std::size_t i = 1; i < N; ++i) {
      lo = lo | rails[op.in[i]];
      hi = hi & rails[op.in[i] ^ 1];
    }
    rails[op.out] = lo;
    rails[op.out ^ 1] = hi;
  }
}

/// Runs the frame program over a rail array: per level, one loop per op
/// kind, then the level's gate patches (a gate's stem line first, then
/// its branch lines, which re-evaluate it with masked fanins).
template <class W>
void eval_schedule(const netlist::CsrSchedule& csr, W* rails,
                   const InjectionMap<W>* inj) {
  using netlist::FrameOps;
  const FrameOps& ops = csr.ops;
  std::span<const LinePatch<W>> patches;
  if (inj != nullptr) patches = inj->patches(PatchKind::Gate);
  const LinePatch<W>* p = patches.data();
  const LinePatch<W>* const last = p + patches.size();
  std::array<std::size_t, FrameOps::kNumKinds> begin{};
  for (std::size_t l = 0; l < ops.ends.size(); ++l) {
    const std::array<std::size_t, FrameOps::kNumKinds>& end = ops.ends[l];
    run_and_ops(ops.and1, begin[FrameOps::kAnd1], end[FrameOps::kAnd1], rails);
    run_and_ops(ops.and2, begin[FrameOps::kAnd2], end[FrameOps::kAnd2], rails);
    run_and_ops(ops.and4, begin[FrameOps::kAnd4], end[FrameOps::kAnd4], rails);
    for (std::size_t k = begin[FrameOps::kXor2]; k < end[FrameOps::kXor2];
         ++k) {
      const netlist::RailOp<2>& op = ops.xor2[k];
      const W a0 = rails[op.in[0]];
      const W a1 = rails[op.in[0] ^ 1];
      const W b0 = rails[op.in[1]];
      const W b1 = rails[op.in[1] ^ 1];
      rails[op.out] = (a0 & b0) | (a1 & b1);
      rails[op.out ^ 1] = (a0 & b1) | (a1 & b0);
    }
    for (std::size_t k = begin[FrameOps::kTail]; k < end[FrameOps::kTail];
         ++k) {
      const netlist::NodeId id = ops.tail[k];
      set_rail_value(rails, id,
                     eval_gate<W>(csr, rails, id, nullptr, nullptr));
    }
    begin = end;
    while (p != last && p->pos < csr.level_offsets[l + 1]) {
      const netlist::NodeId id = p->node;
      const LineMasks<W> stem = p->pin == kStemPin ? (p++)->masks
                                                   : LineMasks<W>{};
      const LinePatch<W>* const pins = p;
      while (p != last && p->node == id) ++p;
      const WideV3<W> v = pins == p ? rail_value(rails, id)
                                    : eval_gate(csr, rails, id, pins, p);
      set_rail_value(rails, id, w_inject(v, stem));
    }
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

  /// Rewrites the constant nodes as reset() leaves them: their values,
  /// then `inj`'s constant stem injections.  No other pass writes a
  /// constant, so a caller that switches injection maps without a
  /// reset() (the stuck-at Session frame) calls this instead.
  void load_constants(const Injections* inj);

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

  /// Loads, in every lane, the state latched at the end of a fault-free
  /// frame whose node values are `frame` (NodeId-indexed, as
  /// NodeTrace::frame): each FF takes its D fanin's value.  Stem
  /// injections as load_state.
  void load_state_after(std::span<const V3> frame, const Injections* inj);

  /// Loads, in every lane, the fault-free state entering frame `t` of
  /// `trace`: the D fanin values of trace frame t-1, or the trace's
  /// initial state when t == 0.  Reads the trace in place.
  void load_state(const NodeTrace& trace, std::size_t t,
                  const Injections* inj);

  /// Per-lane form: lane l takes the state entering frame `t` of
  /// traces[l] (nullptr leaves the lane untouched), as the per-lane
  /// scan-in load does.
  void load_state(std::span<const NodeTrace* const> traces, std::size_t t,
                  const Injections* inj);

  /// Sets the PI values (broadcast; PI stem injections applied) and
  /// evaluates all combinational gates in topological order with branch
  /// and stem injections.
  void apply_frame(const Vector3& pi, const Injections* inj = nullptr);

  /// Per-lane PI stimulus (nullptr lane = all-X inputs), then the same
  /// evaluation.
  void apply_frame(std::span<const Vector3* const> pis_per_lane,
                   const Injections* inj);

  /// Sets the PI words directly (primary_inputs() order, no injections)
  /// and evaluates the gates.
  void apply_frame_words(std::span<const Value> pis) {
    assert(pis.size() == circuit_->num_inputs());
    for (std::size_t i = 0; i < pis.size(); ++i) {
      set(circuit_->primary_inputs()[i], pis[i]);
    }
    eval_gates(nullptr);
  }

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
  [[nodiscard]] Value value(netlist::NodeId id) const {
    return rail_value(rails_.data(), id);
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
  void set(netlist::NodeId id, const Value& v) {
    set_rail_value(rails_.data(), id, v);
  }
  /// Applies the stem patches of `inj`'s `kind` (sources) in place.
  void patch_stems(const Injections* inj, PatchKind kind) {
    if (inj == nullptr) return;
    for (const LinePatch<W>& p : inj->patches(kind)) {
      if (p.pin == kStemPin) set(p.node, w_inject(value(p.node), p.masks));
    }
  }
  /// Loads lane l < n with has(l) from at(l, i) (FF i's value); lanes
  /// without a state keep their values.  Stem injections are re-applied
  /// to the whole word (idempotent on the untouched lanes).
  template <class Has, class At>
  void load_per_lane(std::size_t n, Has has, At at, const Injections* inj);

  /// Applies the PI stem patches, then runs the frame program over the
  /// current source values.
  void eval_gates(const Injections* inj) {
    patch_stems(inj, PatchKind::Input);
    eval_schedule(circuit_->csr(), rails_.data(), inj);
  }

  const netlist::Circuit* circuit_;
  std::vector<netlist::NodeId> d_fanin_;  // per FF: its D input node
  std::vector<netlist::NodeId> consts_;   // the Const0/Const1 nodes
  std::vector<W> rails_;         // node n: is0 at 2n, is1 at 2n + 1
  std::vector<Value> captured_;  // clean latch contents (scan-out view)
};

/// The one-lane (64-slot) simulator.
using PackedSeqSim = SeqSim<std::uint64_t>;

template <class W>
SeqSim<W>::SeqSim(const netlist::Circuit& circuit)
    : circuit_(&circuit),
      rails_(2 * circuit.num_nodes(), splat<W>(~0ULL)),
      captured_(circuit.num_flip_flops(), wide_broadcast<W>(V3::X)) {
  for (const netlist::NodeId ff : circuit.flip_flops()) {
    d_fanin_.push_back(circuit.csr().fanins(ff)[0]);
  }
  for (netlist::NodeId id = 0; id < circuit.num_nodes(); ++id) {
    const netlist::GateType t = circuit.node(id).type;
    if (t == netlist::GateType::Const0 || t == netlist::GateType::Const1) {
      consts_.push_back(id);
    }
  }
  reset();
}

template <class W>
void SeqSim<W>::reset(const Injections* inj) {
  std::fill(rails_.begin(), rails_.end(), splat<W>(~0ULL));  // all X
  for (auto& cap : captured_) cap = wide_broadcast<W>(V3::X);
  load_constants(inj);
  patch_stems(inj, PatchKind::Input);
  patch_stems(inj, PatchKind::FlipFlop);
}

template <class W>
void SeqSim<W>::load_constants(const Injections* inj) {
  for (const netlist::NodeId id : consts_) {
    const bool one = circuit_->node(id).type == netlist::GateType::Const1;
    set(id, wide_broadcast<W>(one ? V3::One : V3::Zero));
  }
  patch_stems(inj, PatchKind::Const);
}

template <class W>
void SeqSim<W>::load_state(const Vector3& state, const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  assert(state.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    // Scan-in stores the clean value; the logic reads through the
    // (possibly stuck) Q.
    captured_[i] = wide_broadcast<W>(state[i]);
    set(ffs[i], captured_[i]);
  }
  patch_stems(inj, PatchKind::FlipFlop);
}

template <class W>
template <class Has, class At>
void SeqSim<W>::load_per_lane(std::size_t n, Has has, At at,
                              const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  assert(n <= kLanes);
  // Each FF's lanes are staged in plain arrays and loaded once; `keep`
  // selects the lanes without a state, which retain their values.
  std::uint64_t sel[kLanes] = {};
  for (std::size_t l = 0; l < n; ++l) sel[l] = has(l) ? ~0ULL : 0;
  const W keep = ~load_lanes<W>(sel);
  std::uint64_t is0[kLanes] = {};
  std::uint64_t is1[kLanes] = {};
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    for (std::size_t l = 0; l < n; ++l) {
      if (sel[l] == 0) continue;
      const auto bits = static_cast<std::uint8_t>(at(l, i));
      is0[l] = (bits & 1) ? ~0ULL : 0;
      is1[l] = (bits & 2) ? ~0ULL : 0;
    }
    const W s0 = load_lanes<W>(is0);
    const W s1 = load_lanes<W>(is1);
    const Value& cap = captured_[i];
    const Value v = value(ffs[i]);
    captured_[i] = Value{(cap.is0 & keep) | s0, (cap.is1 & keep) | s1};
    set(ffs[i], Value{(v.is0 & keep) | s0, (v.is1 & keep) | s1});
  }
  patch_stems(inj, PatchKind::FlipFlop);
}

template <class W>
void SeqSim<W>::load_state(std::span<const Vector3* const> states,
                           const Injections* inj) {
  load_per_lane(
      states.size(), [&](std::size_t l) { return states[l] != nullptr; },
      [&](std::size_t l, std::size_t i) {
        assert(states[l]->size() == circuit_->num_flip_flops());
        return (*states[l])[i];
      },
      inj);
}

template <class W>
void SeqSim<W>::load_state_after(std::span<const V3> frame,
                                 const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  assert(frame.size() == circuit_->num_nodes());
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    captured_[i] = wide_broadcast<W>(frame[d_fanin_[i]]);
    set(ffs[i], captured_[i]);
  }
  patch_stems(inj, PatchKind::FlipFlop);
}

template <class W>
void SeqSim<W>::load_state(const NodeTrace& trace, std::size_t t,
                           const Injections* inj) {
  assert(t <= trace.length());
  if (t == 0) {
    load_state(trace.initial_state(), inj);
  } else {
    load_state_after(trace.frame(t - 1), inj);
  }
}

template <class W>
void SeqSim<W>::load_state(std::span<const NodeTrace* const> traces,
                           std::size_t t, const Injections* inj) {
  // Lane l reads trace frame t-1 (D fanin values) or, at t == 0, the
  // initial state (FF positions) through one base pointer.
  assert(traces.size() <= kLanes);
  const V3* base[kLanes] = {};
  for (std::size_t l = 0; l < traces.size(); ++l) {
    if (traces[l] == nullptr) continue;
    assert(t <= traces[l]->length());
    base[l] = t == 0 ? traces[l]->initial_state().data()
                     : traces[l]->frame(t - 1).data();
  }
  const auto has = [&](std::size_t l) { return base[l] != nullptr; };
  if (t == 0) {
    load_per_lane(
        traces.size(), has,
        [&](std::size_t l, std::size_t i) { return base[l][i]; }, inj);
  } else {
    load_per_lane(
        traces.size(), has,
        [&](std::size_t l, std::size_t i) { return base[l][d_fanin_[i]]; },
        inj);
  }
}

template <class W>
void SeqSim<W>::apply_frame(const Vector3& pi, const Injections* inj) {
  const auto pis = circuit_->primary_inputs();
  assert(pi.size() == pis.size());
  for (std::size_t i = 0; i < pis.size(); ++i) {
    set(pis[i], wide_broadcast<W>(pi[i]));
  }
  eval_gates(inj);
}

template <class W>
void SeqSim<W>::apply_frame(std::span<const Vector3* const> pis_per_lane,
                            const Injections* inj) {
  const auto pis = circuit_->primary_inputs();
  assert(pis_per_lane.size() <= kLanes);
  // Each PI's lanes are staged in plain arrays (X by default) and
  // loaded once.
  std::uint64_t is0[kLanes];
  std::uint64_t is1[kLanes];
  for (std::size_t l = 0; l < kLanes; ++l) is0[l] = is1[l] = ~0ULL;
  for (std::size_t i = 0; i < pis.size(); ++i) {
    for (std::size_t l = 0; l < pis_per_lane.size(); ++l) {
      if (pis_per_lane[l] == nullptr) continue;
      assert(pis_per_lane[l]->size() == pis.size());
      const auto bits = static_cast<std::uint8_t>((*pis_per_lane[l])[i]);
      is0[l] = (bits & 1) ? ~0ULL : 0;
      is1[l] = (bits & 2) ? ~0ULL : 0;
    }
    set(pis[i], Value{load_lanes<W>(is0), load_lanes<W>(is1)});
  }
  eval_gates(inj);
}

template <class W>
void SeqSim<W>::latch(const Injections* inj) {
  const auto ffs = circuit_->flip_flops();
  std::span<const LinePatch<W>> lines;  // ascending NodeId, as ffs
  if (inj != nullptr) lines = inj->patches(PatchKind::FlipFlop);
  // Every capture reads the frame's values before any FF is rewritten.
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    captured_[i] = value(d_fanin_[i]);
    for (; !lines.empty() && lines.front().node == ffs[i];
         lines = lines.subspan(1)) {
      // Branch fault on the D input corrupts the captured value itself.
      if (lines.front().pin == 0) {
        captured_[i] = w_inject(captured_[i], lines.front().masks);
      }
    }
  }
  assert(lines.empty());  // every FF line met its FF
  for (std::size_t i = 0; i < ffs.size(); ++i) set(ffs[i], captured_[i]);
  // Stem fault on Q corrupts only what the logic reads next frame.
  patch_stems(inj, PatchKind::FlipFlop);
}

template <class W>
void SeqSim<W>::get_ff_values(std::span<Value> out) const {
  const auto ffs = circuit_->flip_flops();
  assert(out.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) out[i] = value(ffs[i]);
}

template <class W>
void SeqSim<W>::set_ff_values(std::span<const Value> vals) {
  const auto ffs = circuit_->flip_flops();
  assert(vals.size() == ffs.size());
  for (std::size_t i = 0; i < ffs.size(); ++i) set(ffs[i], vals[i]);
}

template <class W>
Vector3 SeqSim<W>::state_slot(unsigned slot_bit) const {
  const auto ffs = circuit_->flip_flops();
  Vector3 s(ffs.size(), V3::X);
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    s[i] = slot(value(ffs[i]), slot_bit);
  }
  return s;
}

template <class W>
Vector3 SeqSim<W>::outputs_slot(unsigned slot_bit) const {
  const auto pos = circuit_->primary_outputs();
  Vector3 s(pos.size(), V3::X);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    s[i] = slot(value(pos[i]), slot_bit);
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
