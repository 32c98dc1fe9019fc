#include "atpg/podem.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "sim/packed.hpp"
#include "util/telemetry.hpp"

namespace scanc::atpg {

using fault::Fault;
using netlist::Circuit;
using netlist::GateType;
using netlist::Node;
using netlist::NodeId;
using sim::V3;

namespace {

constexpr std::uint32_t kCcMax = 1u << 24;

std::uint32_t sat_add(std::uint32_t a, std::uint32_t b) {
  return std::min(kCcMax, a + b);
}

// Packed (good, bad) byte: good's V3 in bits 0-1, bad's in bits 2-3.
// Bits 0 and 2 are the machines' is0 rails, bits 1 and 3 their is1
// rails, so each V3 operation applies to both machines at once.
constexpr std::uint8_t kIs0 = 0b0101;
constexpr std::uint8_t kIs1 = 0b1010;
constexpr std::uint8_t kGood = 0b0011;

constexpr std::uint8_t pack(V3 good, V3 bad) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(good) |
                                   (static_cast<std::uint8_t>(bad) << 2));
}

constexpr V3 good_of(std::uint8_t v) { return static_cast<V3>(v & kGood); }
constexpr V3 bad_of(std::uint8_t v) { return static_cast<V3>(v >> 2); }

/// `v` with its bad half forced to the stuck value.
constexpr std::uint8_t with_bad(std::uint8_t v, V3 stuck) {
  return pack(good_of(v), stuck);
}

constexpr std::uint8_t inv(std::uint8_t v) {
  return static_cast<std::uint8_t>(((v & kIs0) << 1) | ((v >> 1) & kIs0));
}

constexpr std::uint8_t xor2(std::uint8_t a, std::uint8_t b) {
  const std::uint8_t a0 = a & kIs0;
  const std::uint8_t a1 = (a >> 1) & kIs0;
  const std::uint8_t b0 = b & kIs0;
  const std::uint8_t b1 = (b >> 1) & kIs0;
  return static_cast<std::uint8_t>(((a0 & b0) | (a1 & b1)) |
                                   (((a0 & b1) | (a1 & b0)) << 1));
}

bool has_effect(std::uint8_t v) {
  const V3 good = good_of(v);
  const V3 bad = bad_of(v);
  return sim::is_binary(good) && sim::is_binary(bad) && good != bad;
}

bool x_ish(std::uint8_t v) {
  // X is 0b11 in a half: some half has both rails set.
  return (v & (v >> 1) & kIs0) != 0;
}

// Per-gate evaluation code (Podem::op_): the rail mask that takes the
// OR of the fanins (the other rails take their AND), an inversion flag,
// and the XOR-family flag.
constexpr std::uint8_t kInvertOp = 0x10;
constexpr std::uint8_t kXorOp = 0x20;

constexpr std::uint8_t op_of(GateType type) {
  const std::uint8_t inv_flag = netlist::is_inverting(type) ? kInvertOp : 0;
  switch (type) {
    case GateType::Xor:
    case GateType::Xnor:
      return kXorOp | inv_flag;
    case GateType::Or:
    case GateType::Nor:
      return kIs1 | inv_flag;  // is1 = any fanin is1, is0 = all are
    default:
      return kIs0 | inv_flag;  // AND family, BUF, NOT: is0 = any fanin is0
  }
}

/// Both machines' output of a gate with code `op` whose fanin k is
/// `in(k)`.
template <typename In>
std::uint8_t eval_packed(std::uint8_t op, std::size_t arity, In in) {
  std::uint8_t v = in(0);
  if (op & kXorOp) {
    for (std::size_t k = 1; k < arity; ++k) v = xor2(v, in(k));
  } else {
    std::uint8_t any = v;
    std::uint8_t all = v;
    for (std::size_t k = 1; k < arity; ++k) {
      const std::uint8_t f = in(k);
      any |= f;
      all &= f;
    }
    const std::uint8_t m = op & (kIs0 | kIs1);
    v = static_cast<std::uint8_t>((any & m) | (all & (m ^ (kIs0 | kIs1))));
  }
  return (op & kInvertOp) ? inv(v) : v;
}

}  // namespace

Podem::Podem(const Circuit& circuit, PodemOptions options)
    : circuit_(&circuit),
      csr_(&circuit.csr()),
      options_(options),
      val_(circuit.num_nodes(), pack(V3::X, V3::X)),
      assign_(circuit.num_nodes(), V3::X),
      cc0_(circuit.num_nodes(), 1),
      cc1_(circuit.num_nodes(), 1),
      level_(circuit.num_nodes(), 0),
      op_(circuit.num_nodes(), 0),
      assignable_(circuit.num_nodes(), 0),
      observable_ff_(circuit.num_flip_flops(), 1),
      bucket_(circuit.num_gates()),
      fill_(circuit.depth() + 1, 0),
      queued_(circuit.num_nodes(), 0),
      stamp_(circuit.num_nodes(), 0) {
  const auto ffs = circuit.flip_flops();
  inputs_.reserve(circuit.num_inputs() + ffs.size());
  for (const NodeId id : circuit.primary_inputs()) {
    inputs_.push_back(id);
    assignable_[id] = 1;
  }
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    const bool scanned =
        options_.scan_mask.empty() || options_.scan_mask.test(i);
    observable_ff_[i] = scanned ? 1 : 0;
    if (scanned) {
      inputs_.push_back(ffs[i]);
      assignable_[ffs[i]] = 1;
    }
  }
  // Steer backtrace away from unscanned flip-flops: they can never be
  // justified.
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (!observable_ff_[i]) {
      cc0_[ffs[i]] = kCcMax;
      cc1_[ffs[i]] = kCcMax;
    }
  }
  for (const NodeId id : circuit.topo_order()) {
    level_[id] = circuit.node(id).level;
    op_[id] = op_of(circuit.node(id).type);
  }
  compute_controllability();
}

void Podem::compute_controllability() {
  for (const NodeId id : circuit_->topo_order()) {
    const Node& n = circuit_->node(id);
    std::uint32_t c0 = 0;
    std::uint32_t c1 = 0;
    switch (n.type) {
      case GateType::Buf:
        c0 = cc0_[n.fanins[0]];
        c1 = cc1_[n.fanins[0]];
        break;
      case GateType::Not:
        c0 = cc1_[n.fanins[0]];
        c1 = cc0_[n.fanins[0]];
        break;
      case GateType::And:
      case GateType::Nand: {
        std::uint32_t all1 = 0;
        std::uint32_t any0 = kCcMax;
        for (const NodeId f : n.fanins) {
          all1 = sat_add(all1, cc1_[f]);
          any0 = std::min(any0, cc0_[f]);
        }
        c0 = (n.type == GateType::And) ? any0 : all1;
        c1 = (n.type == GateType::And) ? all1 : any0;
        break;
      }
      case GateType::Or:
      case GateType::Nor: {
        std::uint32_t all0 = 0;
        std::uint32_t any1 = kCcMax;
        for (const NodeId f : n.fanins) {
          all0 = sat_add(all0, cc0_[f]);
          any1 = std::min(any1, cc1_[f]);
        }
        c0 = (n.type == GateType::Or) ? all0 : any1;
        c1 = (n.type == GateType::Or) ? any1 : all0;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Fold pairwise: cost of even / odd parity over the fanins.
        std::uint32_t even = 0;
        std::uint32_t odd = kCcMax;
        for (const NodeId f : n.fanins) {
          const std::uint32_t e =
              std::min(sat_add(even, cc0_[f]), sat_add(odd, cc1_[f]));
          const std::uint32_t o =
              std::min(sat_add(even, cc1_[f]), sat_add(odd, cc0_[f]));
          even = e;
          odd = o;
        }
        c0 = (n.type == GateType::Xor) ? even : odd;
        c1 = (n.type == GateType::Xor) ? odd : even;
        break;
      }
      default:
        continue;
    }
    cc0_[id] = sat_add(c0, 1);
    cc1_[id] = sat_add(c1, 1);
  }
}

std::uint8_t Podem::eval(NodeId id) const {
  const NodeId* fanins = csr_->fanin_ids.data() + csr_->fanin_offsets[id];
  const std::size_t arity =
      csr_->fanin_offsets[id + 1] - csr_->fanin_offsets[id];
  if (id != fault_.node) {
    return eval_packed(op_[id], arity,
                       [&](std::size_t k) { return val_[fanins[k]]; });
  }
  const V3 stuck = sim::v3_from_bool(fault_.value);
  const std::uint8_t v = eval_packed(op_[id], arity, [&](std::size_t k) {
    const std::uint8_t f = val_[fanins[k]];
    return fault_.pin == static_cast<std::int32_t>(k) ? with_bad(f, stuck)
                                                      : f;
  });
  return fault_.pin == sim::kStemPin ? with_bad(v, stuck) : v;
}

void Podem::set_value(NodeId id, std::uint8_t v) {
  trail_.push_back(Change{id, val_[id]});
  val_[id] = v;
}

void Podem::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    val_[trail_.back().node] = trail_.back().old;
    trail_.pop_back();
  }
}

void Podem::next_stamp() {
  if (++stamp_epoch_ == 0) {  // wrapped: no stale mark may match
    std::fill(stamp_.begin(), stamp_.end(), 0);
    stamp_epoch_ = 1;
  }
}

void Podem::build_cone() {
  // The fault site's transitive fanout through combinational gates (a
  // flip-flop's Q is a decision, not a function of its D line), listed
  // in topo_order() order: the D-frontier is collected in this order
  // and then sorted by level with an unstable sort, so the order fixes
  // how level ties break.
  cone_.clear();
  next_stamp();
  stamp_[fault_.node] = stamp_epoch_;
  for (const NodeId id : circuit_->topo_order()) {
    const auto fanins = csr_->fanins(id);
    if (id != fault_.node &&
        std::none_of(fanins.begin(), fanins.end(), [&](NodeId f) {
          return stamp_[f] == stamp_epoch_;
        })) {
      continue;
    }
    stamp_[id] = stamp_epoch_;
    cone_.push_back(id);
  }
}

void Podem::imply() {
  const V3 stuck = sim::v3_from_bool(fault_.value);
  for (NodeId id = 0; id < circuit_->num_nodes(); ++id) {
    const GateType t = csr_->types[id];
    V3 v;
    if (t == GateType::Input || t == GateType::Dff) {
      v = assign_[id];
    } else if (t == GateType::Const0) {
      v = V3::Zero;
    } else if (t == GateType::Const1) {
      v = V3::One;
    } else {
      continue;
    }
    val_[id] = pack(v, fault_.pin == sim::kStemPin && fault_.node == id
                           ? stuck
                           : v);
  }
  for (const NodeId id : csr_->order) val_[id] = eval(id);
  gate_evals_ += csr_->order.size();
}

void Podem::propagate(NodeId changed_input) {
  // Event-driven implication of an input that goes from X to binary: a
  // gate is evaluated only when one of its fanins changed, in level
  // order, so every fanin is final when it is read.  Ternary simulation
  // is monotone (specifying an input only specifies values further), so
  // a gate whose good and bad values are both binary already keeps them
  // and is not queued.  Apart from those, this evaluates exactly the
  // gates a topological scan for dirty fanins would, so the values are
  // the same.
  if (++epoch_ == 0) {
    std::fill(queued_.begin(), queued_.end(), 0);
    epoch_ = 1;
  }
  const V3 a = assign_[changed_input];
  const bool stem_here =
      fault_.pin == sim::kStemPin && fault_.node == changed_input;
  set_value(changed_input,
            pack(a, stem_here ? sim::v3_from_bool(fault_.value) : a));

  std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t hi = 0;
  const auto enqueue_fanouts = [&](NodeId id) {
    for (const NodeId out : csr_->fanouts(id)) {
      const std::uint32_t l = level_[out];
      if (l == 0 || queued_[out] == epoch_ || !x_ish(val_[out])) continue;
      queued_[out] = epoch_;
      bucket_[csr_->level_offsets[l - 1] + fill_[l]++] = out;
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
  };
  enqueue_fanouts(changed_input);
  for (std::uint32_t l = lo; l <= hi; ++l) {
    const std::uint32_t base = csr_->level_offsets[l - 1];
    // Fanouts sit on higher levels, so this bucket is complete.
    for (std::uint32_t i = 0; i < fill_[l]; ++i) {
      const NodeId id = bucket_[base + i];
      const std::uint8_t v = eval(id);
      if (v == val_[id]) continue;
      set_value(id, v);
      enqueue_fanouts(id);
    }
    gate_evals_ += fill_[l];
    fill_[l] = 0;
  }
}

bool Podem::effect_in(NodeId id) const {
  const auto fanins = csr_->fanins(id);
  for (std::size_t p = 0; p < fanins.size(); ++p) {
    std::uint8_t v = val_[fanins[p]];
    if (fault_.node == id && fault_.pin == static_cast<std::int32_t>(p)) {
      v = with_bad(v, sim::v3_from_bool(fault_.value));
    }
    if (has_effect(v)) return true;
  }
  return false;
}

bool Podem::fault_effect_observed() const {
  for (const NodeId po : circuit_->primary_outputs()) {
    if (has_effect(val_[po])) return true;
  }
  const auto ffs = circuit_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (!observable_ff_[i]) continue;
    const NodeId ff = ffs[i];
    std::uint8_t v = val_[csr_->fanins(ff)[0]];
    if (fault_.node == ff && fault_.pin == 0) {
      v = with_bad(v, sim::v3_from_bool(fault_.value));
    }
    if (has_effect(v)) return true;
  }
  return false;
}

bool Podem::x_path_exists() {
  // A node is X-reachable when it is X-ish and some X-ish path leads
  // from it to an observation point (PO or a flip-flop D line).  Only
  // the fault site's cone can hold a gate with a fault effect on an
  // input, and a cone gate's fanouts are cone gates or flip-flops, so
  // one backward pass over the cone decides it.
  next_stamp();
  const auto mark_base = [&](NodeId id) {
    if (x_ish(val_[id])) stamp_[id] = stamp_epoch_;
  };
  for (const NodeId po : circuit_->primary_outputs()) mark_base(po);
  const auto ffs = circuit_->flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (observable_ff_[i]) mark_base(csr_->fanins(ffs[i])[0]);
  }
  for (auto it = cone_.rbegin(); it != cone_.rend(); ++it) {
    const NodeId id = *it;
    if (stamp_[id] != stamp_epoch_) {
      if (!x_ish(val_[id])) continue;
      bool reach = false;
      for (const NodeId out : csr_->fanouts(id)) {
        if (stamp_[out] == stamp_epoch_) {
          reach = true;
          break;
        }
      }
      if (!reach) continue;
      stamp_[id] = stamp_epoch_;
    }
    // Some gate with a fault effect on an input must have an X-path
    // onward.
    if (effect_in(id)) return true;
  }
  // No X-reachable gate holds an effect on an input.  An effect that
  // already sits on an observation line does not count here:
  // fault_effect_observed() catches it before objective() runs, so
  // false is right.
  return false;
}

std::optional<std::pair<NodeId, bool>> Podem::objective() {
  // Activation: the good value at the fault site must oppose the stuck
  // value.  For branch faults, the site value is the driving stem's.
  const NodeId site = fault_.pin == sim::kStemPin
                          ? fault_.node
                          : csr_->fanins(fault_.node)[fault_.pin];
  const V3 site_good = good_of(val_[site]);
  const V3 want = fault_.value ? V3::Zero : V3::One;
  if (site_good == V3::X) return std::make_pair(site, want == V3::One);
  if (site_good != want) return std::nullopt;  // conflict: cannot excite

  // Fault is excited; require a potential propagation path.  (Ternary
  // simulation is monotone, so once every path from every fault effect to
  // an observation point is blocked by a determined-equal node, no
  // further assignment can create a detection: pruning here is sound.)
  if (!x_path_exists()) return std::nullopt;

  // D-frontier: gates with a fault effect on an input and an X-ish
  // output.  Try the deepest first (closest to the outputs) and take the
  // first gate offering an unassigned (X) input to drive.
  frontier_.clear();
  for (const NodeId id : cone_) {
    if (x_ish(val_[id]) && effect_in(id)) frontier_.push_back(id);
  }
  std::sort(frontier_.begin(), frontier_.end(), [&](NodeId a, NodeId b) {
    return level_[a] > level_[b];
  });
  for (const NodeId id : frontier_) {
    const GateType type = csr_->types[id];
    for (const NodeId f : csr_->fanins(id)) {
      if (good_of(val_[f]) != V3::X) continue;
      const bool value = netlist::has_controlling_value(type)
                             ? !netlist::controlling_value(type)
                             : false;  // XOR-family: any binary value
      return std::make_pair(f, value);
    }
  }

  // No frontier gate is directly drivable, but an X-path remains: the
  // blockage sits in the faulty-value cone (good values binary, bad still
  // X).  Keep the search complete by assigning any unassigned input —
  // backtracking explores both values.
  for (const NodeId in : inputs_) {
    if (assign_[in] == V3::X) return std::make_pair(in, false);
  }
  return std::nullopt;
}

std::optional<std::pair<NodeId, bool>> Podem::backtrace(NodeId node,
                                                        bool value) const {
  for (;;) {
    const GateType type = csr_->types[node];
    if (type == GateType::Input || type == GateType::Dff) {
      // Unscanned flip-flops are not decision variables.
      return (assignable_[node] && assign_[node] == V3::X)
                 ? std::make_optional(std::make_pair(node, value))
                 : std::nullopt;
    }
    if (type == GateType::Const0 || type == GateType::Const1) {
      return std::nullopt;  // constants cannot be driven
    }
    const auto fanins = csr_->fanins(node);
    switch (type) {
      case GateType::Buf:
        node = fanins[0];
        break;
      case GateType::Not:
        node = fanins[0];
        value = !value;
        break;
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        const bool inner = netlist::is_inverting(type) ? !value : value;
        const bool ctrl = netlist::controlling_value(type);  // 0 AND, 1 OR
        // inner == !ctrl: all inputs must be !ctrl -> pick the hardest X
        // input; inner == ctrl: one input suffices -> pick the easiest.
        const bool need = inner;
        NodeId pick = netlist::kNoNode;
        std::uint32_t pick_cost = 0;
        const bool want_hardest = (inner != ctrl);
        for (const NodeId f : fanins) {
          if (good_of(val_[f]) != V3::X) continue;
          const std::uint32_t cost = need ? cc1_[f] : cc0_[f];
          if (pick == netlist::kNoNode ||
              (want_hardest ? cost > pick_cost : cost < pick_cost)) {
            pick = f;
            pick_cost = cost;
          }
        }
        if (pick == netlist::kNoNode) return std::nullopt;
        node = pick;
        value = need;
        break;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        // Choose an X input.  With every other input binary the gate
        // computes out = parity ^ in (inversion folded into parity), so
        // the required input is out ^ parity; otherwise any value works.
        NodeId pick = netlist::kNoNode;
        bool others_binary = true;
        bool parity = (type == GateType::Xnor);
        for (const NodeId f : fanins) {
          const V3 g = good_of(val_[f]);
          if (g == V3::X) {
            if (pick == netlist::kNoNode) {
              pick = f;
            } else {
              others_binary = false;
            }
          } else {
            parity ^= (g == V3::One);
          }
        }
        if (pick == netlist::kNoNode) return std::nullopt;
        node = pick;
        value = others_binary ? (value != parity) : false;
        break;
      }
      default:
        return std::nullopt;
    }
  }
}

PodemResult Podem::generate(const Fault& fault) {
  // Scratch from an earlier call is reset here, never trusted: the
  // trail and decisions are cleared, the queue drains empty at the end
  // of every propagate, and the stamps run under fresh epochs.
  fault_ = fault;
  std::fill(assign_.begin(), assign_.end(), V3::X);
  trail_.clear();
  decisions_.clear();
  gate_evals_ = 0;
  std::uint64_t num_decisions = 0;
  PodemResult result;
  build_cone();
  imply();

  const auto finish = [&](PodemStatus status) {
    result.status = status;
    obs::add(obs::Counter::AtpgPodemDecisions, num_decisions);
    obs::add(obs::Counter::AtpgPodemBacktracks, result.backtracks);
    obs::add(obs::Counter::AtpgPodemGateEvals, gate_evals_);
    return result;
  };

  for (;;) {
    if (fault_effect_observed()) {
      for (const NodeId id : circuit_->primary_inputs()) {
        result.cube.inputs.push_back(assign_[id]);
      }
      for (const NodeId id : circuit_->flip_flops()) {
        result.cube.state.push_back(assign_[id]);
      }
      return finish(PodemStatus::Detected);
    }

    bool need_backtrack = true;
    if (const auto obj = objective()) {
      auto bt = backtrace(obj->first, obj->second);
      if (!bt) {
        // Backtrace dead-ended on an unassignable X source (an
        // unscanned flip-flop; only possible under partial scan).
        // That is a heuristic failure, not a proof — declaring the
        // branch exhausted here made PODEM report Untestable for
        // detectable faults.  Stay complete: decide any unassigned
        // input and let backtracking explore both values.
        for (const NodeId in : inputs_) {
          if (assign_[in] == V3::X) {
            bt = std::make_pair(in, false);
            break;
          }
        }
      }
      if (bt) {
        decisions_.push_back(
            Decision{bt->first, bt->second, false, trail_.size()});
        ++num_decisions;
        assign_[bt->first] = sim::v3_from_bool(bt->second);
        propagate(bt->first);
        need_backtrack = false;
      }
    }
    if (!need_backtrack) continue;

    // Backtrack: undo fully-explored decisions, flip the newest untried.
    // The implied values are a function of assign_ alone, so restoring
    // the trail to a decision's mark is the same as re-implying with
    // its input back at X.
    while (!decisions_.empty() && decisions_.back().flipped) {
      assign_[decisions_.back().input] = V3::X;
      undo_to(decisions_.back().mark);
      decisions_.pop_back();
    }
    if (decisions_.empty()) return finish(PodemStatus::Untestable);
    if (++result.backtracks > options_.backtrack_limit) {
      return finish(PodemStatus::Aborted);
    }
    // The flip is implied from the state before the decision, so that
    // every propagate() specifies an X input.
    Decision& d = decisions_.back();
    undo_to(d.mark);
    d.flipped = true;
    d.value = !d.value;
    assign_[d.input] = sim::v3_from_bool(d.value);
    propagate(d.input);
  }
}

}  // namespace scanc::atpg
