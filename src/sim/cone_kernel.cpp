#include "sim/cone_kernel.hpp"

#include <algorithm>
#include <cassert>

namespace scanc::sim {

using netlist::GateType;
using netlist::NodeId;

void ConePlan::build(const netlist::Circuit& c,
                     std::span<const ConeSite> sites) {
  const std::size_t n = c.num_nodes();
  const netlist::CsrSchedule& csr = c.csr();
  eval_.clear();
  boundary_.clear();
  cone_ffs_.clear();
  cone_ff_pos_.clear();
  cone_pos_.clear();
  act_lines_.clear();
  act_stuck_one_.clear();
  in_cone_.assign(n, 0);
  bfs_.clear();

  // Seeds: the node whose output (stem) or input reading (branch) the
  // injection perturbs — in both cases the node's own value can diverge
  // (for a D-branch on a flip-flop, from the next frame on).
  for (const ConeSite& s : sites) {
    if (!in_cone_[s.node]) {
      in_cone_[s.node] = 1;
      bfs_.push_back(s.node);
    }
    act_lines_.push_back(s.pin == kStemPin
                             ? s.node
                             : csr.fanins(s.node)[static_cast<std::size_t>(
                                   s.pin)]);
    act_stuck_one_.push_back(s.stuck_one ? 1 : 0);
  }

  // Sequential closure: BFS over fanouts, propagating *through*
  // flip-flops (a reached FF's state divergence re-enters the logic).
  for (std::size_t head = 0; head < bfs_.size(); ++head) {
    for (const NodeId v : csr.fanouts(bfs_[head])) {
      if (!in_cone_[v]) {
        in_cone_[v] = 1;
        bfs_.push_back(v);
      }
    }
  }

  // Classify.  Scanning the full CSR order keeps eval_ level-major.
  for (const NodeId id : csr.order) {
    if (in_cone_[id]) eval_.push_back(id);
  }
  const auto ffs = c.flip_flops();
  for (std::size_t i = 0; i < ffs.size(); ++i) {
    if (in_cone_[ffs[i]]) {
      cone_ffs_.push_back(ffs[i]);
      cone_ff_pos_.push_back(static_cast<std::uint32_t>(i));
    }
  }
  for (const NodeId po : c.primary_outputs()) {
    if (in_cone_[po]) cone_pos_.push_back(po);
  }

  // Boundary: every value the cone reads but does not itself produce.
  // Cone production covers in-cone combinational gates (eval_) and
  // in-cone flip-flops (latched); in-cone *sources* (injected PIs or
  // constants) and all out-of-cone fanins must be seeded from the
  // fault-free trace each frame.
  const auto produced = [&](NodeId v) {
    return in_cone_[v] != 0 && (netlist::is_combinational(csr.types[v]) ||
                                csr.types[v] == GateType::Dff);
  };
  for (const NodeId id : bfs_) {
    if (!produced(id)) boundary_.push_back(id);  // in-cone PI/const seeds
  }
  for (const NodeId g : eval_) {
    for (const NodeId f : csr.fanins(g)) {
      if (!produced(f)) boundary_.push_back(f);
    }
  }
  for (const NodeId f : cone_ffs_) {
    const NodeId d = csr.fanins(f)[0];
    if (!produced(d)) boundary_.push_back(d);
  }
  std::sort(boundary_.begin(), boundary_.end());
  boundary_.erase(std::unique(boundary_.begin(), boundary_.end()),
                  boundary_.end());
}

ConeSim::ConeSim(const netlist::Circuit& c)
    : circuit_(&c),
      values_(c.num_nodes(), broadcast(V3::X)),
      captured_(c.num_flip_flops(), broadcast(V3::X)) {}

void ConeSim::begin(const ConePlan& plan, const PackedInjectionMap& inj,
                    const NodeTrace& trace) {
  plan_ = &plan;
  inj_ = &inj;
  trace_ = &trace;
  next_.resize(plan.cone_ffs().size());
  // All machines start in the (fault-free) scan-in / all-X state; the
  // first simulated frame re-seeds the cone FFs from the trace.
  clean_ = true;
}

bool ConeSim::eval_frame(std::size_t t) {
  assert(t < trace_->length());
  if (clean_) {
    // Activation check: while every injected line's fault-free value
    // already equals its stuck value, the injections are no-ops and the
    // whole frame is identical to the fault-free trace.
    const auto lines = plan_->act_lines();
    const auto stuck = plan_->act_stuck_one();
    bool active = false;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const V3 v = trace_->value(t, lines[i]);
      if (v != (stuck[i] ? V3::One : V3::Zero)) {
        active = true;
        break;
      }
    }
    if (!active) return false;
    // Resuming from the fault-free state: re-seed the cone FF read
    // values (possibly stale after skipped frames) from the trace.
    for (const NodeId f : plan_->cone_ffs()) {
      PackedV3 v = broadcast(trace_->value(t, f));
      if (inj_->any(f)) v = apply_stem(v, inj_->at(f));
      values_[f] = v;
    }
  }

  // Seed the cone boundary with the broadcast fault-free values; stem
  // injections on in-cone sources (PIs/constants) are re-applied on top.
  for (const NodeId b : plan_->boundary()) {
    PackedV3 v = broadcast(trace_->value(t, b));
    if (inj_->any(b)) v = apply_stem(v, inj_->at(b));
    values_[b] = v;
  }

  // Evaluate the compacted schedule with the full kernel's gate loop.
  eval_schedule(circuit_->csr(), plan_->eval(), values_.data(), inj_);
  return true;
}

void ConeSim::latch() {
  const netlist::CsrSchedule& csr = circuit_->csr();
  const auto ffs = plan_->cone_ffs();
  const auto pos = plan_->cone_ff_pos();
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    PackedV3 v = values_[csr.fanins(ffs[k])[0]];
    if (inj_->any(ffs[k])) v = apply_pin(v, 0, inj_->at(ffs[k]));
    next_[k] = v;
  }
  std::uint64_t diff = 0;
  for (std::size_t k = 0; k < ffs.size(); ++k) {
    captured_[pos[k]] = next_[k];
    PackedV3 r = next_[k];
    if (inj_->any(ffs[k])) r = apply_stem(r, inj_->at(ffs[k]));
    values_[ffs[k]] = r;
    diff |= diverging_slots(next_[k]) | diverging_slots(r);
  }
  clean_ = diff == 0;
}

}  // namespace scanc::sim
