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
//               about the current frame (PO and scan-out detection
//               words);
//   Activation  launch(t, ev, tally) decides whether frame t has any
//               active fault and prepares the evaluator for it;
//               kPersistent says whether faulty state carries across
//               frames (then every simulated frame latches and scan-out
//               reads the evaluator's final state);
//   Observer    what a pass records.  interrupted() is polled before
//               every frame; frame() sees each simulated frame's POs;
//               wants_state(last) asks a non-persistent activation to
//               latch this frame; state() sees each latch; done(last)
//               ends the pass early; scan_out(ev, valid) observes the
//               final state (valid: the evaluator holds it, else every
//               machine scans out the fault-free state).
//
// This header holds the policies both GroupWorker (one-lane word, all
// three passes) and the wide fault-parallel BatchEngine passes (W lanes
// of fault groups) run: FullEval<W> over SeqSim<W>, the two activations
// AlwaysActive (stuck-at) and TdfLaunch<W> (transition, lane l launching
// its own group's sites), and the three observers DetectObs<W>,
// TimesObs<W> and PrefixObs<W>.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>

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
  /// Gates the injection patches evaluate per frame.
  [[nodiscard]] std::size_t patched_gates() const {
    return inj_.patched_gates();
  }
  void latch() { sim_.latch(&inj_); }
  void reload(std::size_t t) { sim_.load_state(*trace_, t, &inj_); }

  [[nodiscard]] W po_detections() const { return fault::po_detections(sim_); }
  [[nodiscard]] W state_detections() const {
    return fault::state_detections(sim_, scan_mask_);
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

/// One lane of a transition-fault pass: a fault group's activation sites
/// and the fault-free trace its launches are read from (nullptr when the
/// caller sets the lane's launch mask itself).
struct TdfLane {
  const TdfSites* sites = nullptr;
  const sim::NodeTrace* trace = nullptr;
};

/// Transition delay (frame-gated), on any word width: lane l carries one
/// fault group, and its fault j is active in frame t >= 1 iff the site
/// launches the delayed transition across frames t-1 -> t of the lane's
/// fault-free trace.  An active frame is simulated one-frame from the
/// fault-free state entering it, with each launched site stuck at its
/// stale value in its own lane's slot only; effects never persist, so
/// scan-out observes a fault only through an active final frame.  Frames
/// where no lane launches are skipped whole (Counter::TdfFramesSkipped,
/// one per lane).  Lane l evolves exactly as the one-lane pass over its
/// group does.
template <class W>
class TdfLaunch {
 public:
  static constexpr bool kPersistent = false;
  static constexpr std::size_t kLanes = sim::kWordLanes<W>;

  TdfLaunch(sim::InjectionMap<W>& inj, std::span<const TdfLane> lanes)
      : inj_(inj), n_(lanes.size()) {
    assert(n_ >= 1 && n_ <= kLanes);
    std::copy(lanes.begin(), lanes.end(), lanes_.begin());
  }

  template <class Eval>
  bool launch(std::size_t t, Eval& ev, FrameTally& tally) {
    if (!activate(t)) {
      tally.tdf_skipped += n_;
      return false;  // no launch: every machine follows the trace
    }
    tally.tdf_activations += activations();
    inject();
    ev.reload(t);
    return true;
  }

  /// Sets every lane's launch mask for frame `t` from its trace (none in
  /// frame 0, which has no launch frame, nor past the trace's end) and
  /// returns whether any lane launches.
  bool activate(std::size_t t) {
    std::uint64_t any = 0;
    for (std::size_t l = 0; l < n_; ++l) {
      const TdfLane& lane = lanes_[l];
      act_[l] = t == 0 || t >= lane.trace->length()
                    ? 0
                    : lane.sites->activation(*lane.trace, t);
      any |= act_[l];
    }
    return any != 0;
  }

  /// Lane l's launch mask (slot j+1 = site j launched).
  [[nodiscard]] std::uint64_t act(std::size_t l) const { return act_[l]; }
  void set_act(std::size_t l, std::uint64_t act) { act_[l] = act; }

  /// Launched sites over every lane.
  [[nodiscard]] std::uint64_t activations() const {
    std::uint64_t n = 0;
    for (std::size_t l = 0; l < n_; ++l) {
      n += static_cast<std::uint64_t>(std::popcount(act_[l]));
    }
    return n;
  }

  /// Rebuilds the injection map from the launch masks: each launched
  /// site is a stem injection at its stale value in its lane's slot.
  /// Lanes that share one site list (one group under several tests)
  /// share one injection per site.
  void inject() {
    inj_.clear();
    std::uint64_t done = 0;  // bit l: lane l injected
    for (std::size_t l = 0; l < n_; ++l) {
      if (act_[l] == 0 || (done >> l & 1) != 0) continue;
      const TdfSites& sites = *lanes_[l].sites;
      std::uint64_t share = 0;
      std::uint64_t launched = 0;
      for (std::size_t k = l; k < n_; ++k) {
        if (lanes_[k].sites == &sites && act_[k] != 0) {
          share |= 1ULL << k;
          launched |= act_[k];
        }
      }
      done |= share;
      for_each_slot(launched, [&](std::size_t j) {
        const std::uint64_t slot = 1ULL << (j + 1);
        std::uint64_t m[kLanes] = {};
        for (std::size_t k = l; k < n_; ++k) {
          if ((share >> k & 1) != 0) m[k] = act_[k] & slot;
        }
        const TdfSite s = sites[j];
        inj_.add(s.node, sim::kStemPin, s.stale, sim::load_lanes<W>(m));
      });
    }
    inj_.compile();
  }

 private:
  sim::InjectionMap<W>& inj_;
  std::size_t n_;
  std::array<TdfLane, kLanes> lanes_{};
  std::array<std::uint64_t, kLanes> act_{};
};

/// Cooperative stop signals, polled once per frame, the latch hook most
/// observers ignore, and the frame weight: a pass over
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

/// Calls fn(k) for every set slot of every lane of `bits`, where k =
/// lane * kGroupSize + member: the fault's position in a pass whose lane
/// l carries the l-th of consecutive groups (k = member on the one-lane
/// word).
template <class W, class Fn>
void for_each_lane_slot(const W& bits, Fn fn) {
  if (!sim::any(bits)) return;
  std::uint64_t lanes[sim::kWordLanes<W>];
  sim::store_lanes(bits, lanes);
  for (std::size_t l = 0; l < sim::kWordLanes<W>; ++l) {
    for_each_slot(lanes[l], [&](std::size_t j) { fn(l * kGroupSize + j); });
  }
}

/// First PO detection time per fault, and every time unit whose scan-out
/// (the state latched at its end) would detect it.  Both spans are
/// indexed as for_each_lane_slot numbers the faults.
template <class W>
struct TimesObs : ObserverBase {
  std::span<std::int64_t> first_po;
  std::span<util::Bitset> state_diff;
  W det = sim::zero<W>();

  template <class Eval>
  void frame(std::size_t t, const Eval& ev) {
    const W fresh = ev.po_detections() & ~det;
    det = det | fresh;
    for_each_lane_slot(fresh, [&](std::size_t k) {
      first_po[k] = static_cast<std::int64_t>(t);
    });
  }
  [[nodiscard]] bool wants_state(bool /*last*/) const { return true; }
  template <class Eval>
  void state(std::size_t t, const Eval& ev) {
    for_each_lane_slot(ev.state_detections(),
                       [&](std::size_t k) { state_diff[k].set(t); });
  }
  [[nodiscard]] bool done(bool /*last*/) const { return false; }
  template <class Eval>
  void scan_out(const Eval& /*ev*/, bool /*valid*/) {}
};

/// First PO detection times (indexed as in TimesObs) plus the whole
/// test's detection word (final scan-out included); stops once every
/// fault of every lane is PO-detected.
template <class W>
struct PrefixObs : ObserverBase {
  W full;
  std::span<std::int64_t> first_po;
  W det = sim::zero<W>();

  template <class Eval>
  void frame(std::size_t t, const Eval& ev) {
    const W fresh = ev.po_detections() & ~det;
    det = det | fresh;
    for_each_lane_slot(fresh, [&](std::size_t k) {
      first_po[k] = static_cast<std::int64_t>(t);
    });
  }
  [[nodiscard]] bool wants_state(bool last) const { return last; }
  [[nodiscard]] bool done(bool /*last*/) const {
    return !sim::any(det ^ full);
  }
  template <class Eval>
  void scan_out(const Eval& ev, bool valid) {
    if (valid) det = det | ev.state_detections();
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
    if (!act.launch(t, ev, tally)) continue;
    ev.eval(t);
    tally.simulated += obs.lanes;
    tally.patched += ev.patched_gates();
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
