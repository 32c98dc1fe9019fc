#include "check/oracle_sim.hpp"

#include <cassert>

#include "sim/injection.hpp"

namespace scanc::check {

using netlist::Circuit;
using netlist::GateType;
using netlist::Node;
using netlist::NodeId;
using sim::Sequence;
using sim::V3;
using sim::Vector3;

namespace {

/// Literal 3-valued gate evaluation by case analysis on the pin values
/// ("any controlling pin decides; any X makes the result unknown") —
/// intentionally not the shared v3_and/v3_or algebra or the packed
/// bitwise forms, so an encoding bug in either cannot hide here.
V3 eval_gate(GateType type, const std::vector<V3>& pins) {
  switch (type) {
    case GateType::Buf:
      return pins[0];
    case GateType::Not:
      if (pins[0] == V3::X) return V3::X;
      return pins[0] == V3::One ? V3::Zero : V3::One;
    case GateType::And:
    case GateType::Nand: {
      bool any_zero = false;
      bool any_x = false;
      for (const V3 v : pins) {
        if (v == V3::Zero) any_zero = true;
        if (v == V3::X) any_x = true;
      }
      V3 out = any_zero ? V3::Zero : (any_x ? V3::X : V3::One);
      if (type == GateType::Nand && out != V3::X) {
        out = out == V3::One ? V3::Zero : V3::One;
      }
      return out;
    }
    case GateType::Or:
    case GateType::Nor: {
      bool any_one = false;
      bool any_x = false;
      for (const V3 v : pins) {
        if (v == V3::One) any_one = true;
        if (v == V3::X) any_x = true;
      }
      V3 out = any_one ? V3::One : (any_x ? V3::X : V3::Zero);
      if (type == GateType::Nor && out != V3::X) {
        out = out == V3::One ? V3::Zero : V3::One;
      }
      return out;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool parity = false;
      for (const V3 v : pins) {
        if (v == V3::X) return V3::X;
        if (v == V3::One) parity = !parity;
      }
      if (type == GateType::Xnor) parity = !parity;
      return parity ? V3::One : V3::Zero;
    }
    default:
      assert(false && "not a combinational gate");
      return V3::X;
  }
}

/// One scalar machine, fault-free (fault == nullptr) or with a single
/// stuck-at fault permanently applied.
class Machine {
 public:
  Machine(const Circuit& c, const fault::Fault* fault)
      : c_(&c), fault_(fault) {}

  void reset() {
    vals_.assign(c_->num_nodes(), V3::X);
    captured_.assign(c_->num_flip_flops(), V3::X);
    for (NodeId n = 0; n < c_->num_nodes(); ++n) {
      const GateType t = c_->node(n).type;
      if (t == GateType::Const0) vals_[n] = stem(n, V3::Zero);
      if (t == GateType::Const1) vals_[n] = stem(n, V3::One);
    }
    // Flip-flops start X; a stem fault still forces the read value.
    const auto ffs = c_->flip_flops();
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      vals_[ffs[i]] = stem(ffs[i], V3::X);
    }
  }

  /// Scan-in: `state` must already have unscanned positions forced to X.
  void load_state(const Vector3& state) {
    const auto ffs = c_->flip_flops();
    assert(state.size() == ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      captured_[i] = state[i];  // the latch content itself is clean
      vals_[ffs[i]] = stem(ffs[i], state[i]);
    }
  }

  void apply_frame(const Vector3& pi) {
    const auto pis = c_->primary_inputs();
    assert(pi.size() == pis.size());
    for (std::size_t i = 0; i < pis.size(); ++i) {
      vals_[pis[i]] = stem(pis[i], pi[i]);
    }
    for (const NodeId n : c_->topo_order()) {
      const Node& node = c_->node(n);
      pins_.clear();
      for (std::size_t j = 0; j < node.fanins.size(); ++j) {
        pins_.push_back(
            pin(n, static_cast<std::int32_t>(j), vals_[node.fanins[j]]));
      }
      vals_[n] = stem(n, eval_gate(node.type, pins_));
    }
  }

  void latch() {
    const auto ffs = c_->flip_flops();
    next_.resize(ffs.size());
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      // A D-side branch fault corrupts the capture; a Q-side stem fault
      // corrupts only the value the logic reads next frame.
      const NodeId d = c_->node(ffs[i]).fanins[0];
      next_[i] = pin(ffs[i], 0, vals_[d]);
    }
    for (std::size_t i = 0; i < ffs.size(); ++i) {
      captured_[i] = next_[i];
      vals_[ffs[i]] = stem(ffs[i], next_[i]);
    }
  }

  /// Post-stem value as read by logic and primary-output observation.
  [[nodiscard]] V3 value(NodeId n) const { return vals_[n]; }

  /// Clean latch content of flip-flop index `i` (scan-out view).
  [[nodiscard]] V3 captured(std::size_t i) const { return captured_[i]; }

 private:
  [[nodiscard]] V3 stuck() const {
    return fault_->value ? V3::One : V3::Zero;
  }
  [[nodiscard]] V3 stem(NodeId n, V3 v) const {
    if (fault_ != nullptr && fault_->node == n &&
        fault_->pin == sim::kStemPin) {
      return stuck();
    }
    return v;
  }
  [[nodiscard]] V3 pin(NodeId n, std::int32_t j, V3 v) const {
    if (fault_ != nullptr && fault_->node == n && fault_->pin == j) {
      return stuck();
    }
    return v;
  }

  const Circuit* c_;
  const fault::Fault* fault_;
  std::vector<V3> vals_;
  std::vector<V3> captured_;
  std::vector<V3> pins_;
  std::vector<V3> next_;
};

bool conservative_diff(V3 a, V3 b) {
  return a != V3::X && b != V3::X && a != b;
}

Vector3 masked_scan_in(const Vector3& scan_in,
                       const util::Bitset& scan_mask) {
  Vector3 masked = scan_in;
  for (std::size_t i = 0; i < masked.size(); ++i) {
    if (!scan_mask.test(i)) masked[i] = V3::X;
  }
  return masked;
}

/// Tracks the fault-free machine across frames and decides, per frame,
/// whether a transition fault launches: the stem held the stale value in
/// the previous frame and the opposite binary value in the current one.
/// Frame 0 has no previous frame and never launches.  When a frame is
/// active, the caller simulates a fresh one-frame faulty machine from
/// `state_entering` (the clean latch content the frame started from).
struct TdfTracker {
  explicit TdfTracker(const fault::Fault& f)
      : stale(f.value ? V3::One : V3::Zero),
        fresh(f.value ? V3::Zero : V3::One) {}

  /// Call after free.apply_frame(t) with the free stem value of frame t.
  [[nodiscard]] bool launches(std::size_t t, V3 cur) const {
    return t >= 1 && prev == stale && cur == fresh;
  }

  V3 stale;
  V3 fresh;
  V3 prev = V3::X;  // free stem value of the previous frame
};

/// Clean latch content of the free machine (state entering the next
/// frame; the Vector3 a one-frame faulty machine is loaded from).
Vector3 captured_state(const Circuit& c, const Machine& m) {
  Vector3 state(c.num_flip_flops(), V3::X);
  for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
    state[i] = m.captured(i);
  }
  return state;
}

OracleResult oracle_run_tdf(const Circuit& c, const util::Bitset& scan_mask,
                            const fault::Fault& f, const Vector3* scan_in,
                            const Sequence& seq, bool observe_scan_out) {
  assert(f.pin == sim::kStemPin);
  const fault::Fault frozen{f.node, f.pin, f.value};  // stuck at stale
  Machine free(c, nullptr);
  free.reset();
  const bool scan_test = scan_in != nullptr;
  Vector3 state_entering(c.num_flip_flops(), V3::X);
  if (scan_test) {
    state_entering = masked_scan_in(*scan_in, scan_mask);
    free.load_state(state_entering);
  }

  OracleResult out;
  if (scan_test) out.state_diff.assign(seq.length(), 0);
  TdfTracker tracker(f);
  Machine faulty(c, &frozen);
  for (std::size_t t = 0; t < seq.length(); ++t) {
    free.apply_frame(seq.frames[t]);
    const V3 cur = free.value(f.node);
    const bool active = tracker.launches(t, cur);
    if (active) {
      faulty.reset();
      faulty.load_state(state_entering);
      faulty.apply_frame(seq.frames[t]);
      for (const NodeId po : c.primary_outputs()) {
        if (conservative_diff(free.value(po), faulty.value(po))) {
          if (out.first_po < 0) out.first_po = static_cast<std::int64_t>(t);
          out.detected = true;
          break;
        }
      }
      faulty.latch();
    }
    free.latch();
    if (scan_test && active) {
      for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
        if (!scan_mask.test(i)) continue;
        if (conservative_diff(free.captured(i), faulty.captured(i))) {
          out.state_diff[t] = 1;
          if (observe_scan_out && t + 1 == seq.length()) {
            out.detected = true;
          }
          break;
        }
      }
    }
    // Inactive frames leave state_diff[t] == 0: with no launch the
    // faulty machine is the fault-free machine.
    state_entering = captured_state(c, free);
    tracker.prev = cur;
  }
  return out;
}

}  // namespace

OracleResult oracle_run(const Circuit& c, const util::Bitset& scan_mask,
                        const fault::Fault& f, const Vector3* scan_in,
                        const Sequence& seq, bool observe_scan_out) {
  Machine free(c, nullptr);
  Machine faulty(c, &f);
  free.reset();
  faulty.reset();
  const bool scan_test = scan_in != nullptr;
  if (scan_test) {
    const Vector3 masked = masked_scan_in(*scan_in, scan_mask);
    free.load_state(masked);
    faulty.load_state(masked);
  }

  OracleResult out;
  if (scan_test) out.state_diff.assign(seq.length(), 0);
  for (std::size_t t = 0; t < seq.length(); ++t) {
    free.apply_frame(seq.frames[t]);
    faulty.apply_frame(seq.frames[t]);
    for (const NodeId po : c.primary_outputs()) {
      if (conservative_diff(free.value(po), faulty.value(po))) {
        if (out.first_po < 0) out.first_po = static_cast<std::int64_t>(t);
        out.detected = true;
        break;
      }
    }
    free.latch();
    faulty.latch();
    if (scan_test) {
      for (std::size_t i = 0; i < c.num_flip_flops(); ++i) {
        if (!scan_mask.test(i)) continue;
        if (conservative_diff(free.captured(i), faulty.captured(i))) {
          out.state_diff[t] = 1;
          if (observe_scan_out && t + 1 == seq.length()) {
            out.detected = true;
          }
          break;
        }
      }
    }
  }
  return out;
}

OracleResult oracle_run(const Circuit& c, const util::Bitset& scan_mask,
                        const fault::FaultModel& model, const fault::Fault& f,
                        const Vector3* scan_in, const Sequence& seq,
                        bool observe_scan_out) {
  if (model.frame_gated()) {
    return oracle_run_tdf(c, scan_mask, f, scan_in, seq, observe_scan_out);
  }
  return oracle_run(c, scan_mask, f, scan_in, seq, observe_scan_out);
}

}  // namespace scanc::check
