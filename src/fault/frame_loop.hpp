// The one fault-simulation frame loop and the policies every word width
// shares.
//
// frame_loop(ev, act, obs, len) steps one pass through a test's frames,
// templated on three policies (docs/execution.md, "Simulation kernels"):
//
//   Evaluator   steps the machines through the frames — eval(t)
//               simulates frame t, latch() captures the next state,
//               reload(t) restarts frame t from the fault-free state
//               entering it — and answers the observers' questions
//               about the current frame (PO and scan-out detection words,
//               mismatch words against an observed response);
//   Activation  launch(t, ev, tally) decides whether frame t has any
//               active fault and prepares the evaluator for it;
//               kPersistent says whether faulty state carries across
//               frames (then every simulated frame latches and scan-out
//               reads the evaluator's final state);
//   Observer    what a pass records.  interrupted() is polled before
//               every frame; frame() sees each simulated frame's POs;
//               quiet() sees frames where every slot follows the
//               fault-free trace and returns whether it observed
//               anything; wants_state(last) asks a non-persistent
//               activation to latch this frame; state() sees each latch;
//               done(last) ends the pass early; scan_out(ev, valid)
//               observes the final state (valid: the evaluator holds it,
//               else every machine scans out the fault-free state).
//
// This header holds the policies both GroupWorker (one-lane word, all
// four passes) and the wide fault-parallel BatchEngine pass (W lanes of
// fault groups) run: FullEval<W> over SeqSim<W>, AlwaysActive and
// DetectObs<W>.  The transition activation and the remaining observers
// are one-lane only and live in group_worker.cpp.
#pragma once

#include <atomic>
#include <cstdint>

#include "fault/frame_common.hpp"
#include "sim/node_trace.hpp"
#include "sim/seq_sim.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// PO detection word of the simulator's current frame.
template <class W>
[[nodiscard]] W po_detections(const sim::SeqSim<W>& sim) {
  W det = sim::zero<W>();
  for (const netlist::NodeId po : sim.circuit().primary_outputs()) {
    det = det | sim::wide_detections(sim.value(po));
  }
  return det;
}

/// Scan-out detection word: the captured latch contents (PPO convention)
/// of the flip-flops on the scan chain.
template <class W>
[[nodiscard]] W state_detections(const sim::SeqSim<W>& sim,
                                 const util::Bitset& scan_mask) {
  W det = sim::zero<W>();
  for (std::size_t i = 0; i < sim.circuit().num_flip_flops(); ++i) {
    if (scan_mask.test(i)) det = det | sim::wide_detections(sim.captured(i));
  }
  return det;
}

/// Mismatch bits of one observation point: predicted binary, observed
/// binary, values differ.
[[nodiscard]] inline std::uint64_t mismatches(sim::PackedV3 w,
                                              sim::V3 observed) {
  if (!sim::is_binary(observed)) return 0;
  return sim::differs_from_reference(w, observed == sim::V3::One);
}

/// The full CSR schedule on a SeqSim<W>: the machines start from the
/// (partial-scan masked) scan-in, or all-X without one.
template <class W>
class FullEval {
 public:
  FullEval(sim::SeqSim<W>& sim, const sim::InjectionMap<W>& inj,
           const util::Bitset& scan_mask, const sim::Sequence& seq,
           const sim::NodeTrace* trace, const sim::Vector3* scan_in)
      : sim_(sim), inj_(inj), scan_mask_(scan_mask), seq_(seq),
        trace_(trace) {
    sim_.reset(&inj_);
    if (scan_in != nullptr) {
      sim_.load_state(mask_scan_in(*scan_in, scan_mask_), &inj_);
    }
  }

  void eval(std::size_t t) { sim_.apply_frame(seq_.frames[t], &inj_); }
  void latch() { sim_.latch(&inj_); }
  void reload(std::size_t t) {
    sim_.load_state(trace_->state_at_start(t), &inj_);
  }

  [[nodiscard]] W po_detections() const { return fault::po_detections(sim_); }
  [[nodiscard]] W state_detections() const {
    return fault::state_detections(sim_, scan_mask_);
  }
  [[nodiscard]] std::uint64_t po_mismatches(
      std::size_t /*t*/, const sim::Vector3& observed) const {
    const auto pos = sim_.circuit().primary_outputs();
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < pos.size(); ++i) {
      m |= mismatches(sim_.value(pos[i]), observed[i]);
    }
    return m;
  }
  [[nodiscard]] std::uint64_t state_mismatches(
      const sim::Vector3& observed) const {
    std::uint64_t m = 0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
      if (scan_mask_.test(i)) m |= mismatches(sim_.captured(i), observed[i]);
    }
    return m;
  }

 private:
  sim::SeqSim<W>& sim_;
  const sim::InjectionMap<W>& inj_;
  const util::Bitset& scan_mask_;
  const sim::Sequence& seq_;
  const sim::NodeTrace* trace_;
};

/// Stuck-at: every fault is active in every frame.  The injections are
/// built once per pass and the faulty machines run from the scan-in.
struct AlwaysActive {
  static constexpr bool kPersistent = true;
  template <class Eval>
  bool launch(std::size_t /*t*/, Eval& /*ev*/, FrameTally& /*tally*/) {
    return true;
  }
};

/// Cooperative stop signals, polled once per frame, the quiet-frame and
/// latch hooks most observers ignore, and the frame weight: a pass over
/// `lanes` lanes counts lane-frames, so FramesSimulated stays comparable
/// between one-lane and wide passes.
struct ObserverBase {
  const std::atomic<bool>* keep_going = nullptr;
  const util::CancelToken* cancel = nullptr;
  std::size_t lanes = 1;

  [[nodiscard]] bool interrupted() const {
    return (keep_going != nullptr &&
            !keep_going->load(std::memory_order_relaxed)) ||
           (cancel != nullptr && cancel->stop_requested());
  }
  [[nodiscard]] bool quiet(std::size_t /*t*/) { return false; }
  template <class Eval>
  void state(std::size_t /*t*/, const Eval& /*ev*/) {}
};

/// Detection word, with an optional early exit once every group fault of
/// every lane is PO-detected before the last frame.
template <class W>
struct DetectObs : ObserverBase {
  W full;
  bool observe_scan_out;
  bool early_exit;
  W det = sim::zero<W>();

  template <class Eval>
  void frame(std::size_t /*t*/, const Eval& ev) {
    det = det | ev.po_detections();
  }
  [[nodiscard]] bool wants_state(bool last) const {
    return observe_scan_out && last;
  }
  [[nodiscard]] bool done(bool last) const {
    return early_exit && !last && !sim::any(det ^ full);
  }
  template <class Eval>
  void scan_out(const Eval& ev, bool valid) {
    if (observe_scan_out && valid) det = det | ev.state_detections();
  }
};

/// The one frame loop every pass runs.  Scan-out reads the evaluator's
/// state when the activation is persistent, else only after a latch on
/// the final frame (otherwise every machine scans out fault-free).
template <class Eval, class Act, class Obs>
void frame_loop(Eval& ev, Act& act, Obs& obs, std::size_t len) {
  FrameTally tally;
  bool scan_valid = Act::kPersistent;
  for (std::size_t t = 0; t < len; ++t) {
    if (obs.interrupted()) return;  // partial result
    const bool last = t + 1 == len;
    if (!act.launch(t, ev, tally)) {
      if (obs.quiet(t) && obs.done(last)) return;
      continue;
    }
    ev.eval(t);
    tally.simulated += obs.lanes;
    obs.frame(t, ev);
    if (Act::kPersistent || obs.wants_state(last)) {
      ev.latch();
      obs.state(t, ev);
      scan_valid = scan_valid || last;
    }
    if (obs.done(last)) return;
  }
  obs.scan_out(ev, scan_valid);
}

}  // namespace scanc::fault
