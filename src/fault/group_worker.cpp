#include "fault/group_worker.hpp"

#include <bit>
#include <cassert>
#include <utility>

#include "fault/frame_loop.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

using sim::Sequence;
using sim::Vector3;

GroupWorker::GroupWorker(const netlist::Circuit& circuit,
                         const FaultList& faults, util::Bitset scan_mask)
    : circuit_(&circuit),
      faults_(&faults),
      scan_mask_(std::move(scan_mask)),
      sim_(circuit),
      injections_(circuit.num_nodes()) {
  assert(scan_mask_.size() == circuit.num_flip_flops());
}

BatchEngine& GroupWorker::batch_engine(const sim::SimdConfig& cfg) {
  if (batch_engine_ == nullptr || !(batch_cfg_ == cfg)) {
    batch_engine_ = make_batch_engine(*circuit_, *faults_, scan_mask_, cfg);
    batch_cfg_ = cfg;
  }
  return *batch_engine_;
}

// ---------------------------------------------------------------------
// The one-lane policies of the frame loop (fault/frame_loop.hpp): the
// transition activation and the detection-time, prefix and consistency
// observers.

namespace {

/// Mismatch word of a slot-uniform observation point at fault-free value
/// `v`: a binary/binary difference mismatches all slots at once — the
/// word `mismatches` yields on a uniform packed value.
std::uint64_t uniform_mismatch(sim::V3 v, sim::V3 observed) {
  return (sim::is_binary(observed) && sim::is_binary(v) && v != observed)
             ? ~0ULL
             : 0;
}

/// Transition delay (frame-gated): fault j is active in frame t >= 1 iff
/// its site launches the delayed transition across frames t-1 -> t of
/// the fault-free trace.  An active frame is simulated one-frame from the
/// fault-free state entering it with the active sites stuck at their
/// stale values; effects never persist, so scan-out observes a fault
/// only through an active final frame.  Frames without any active fault
/// are skipped whole (Counter::TdfFramesSkipped).
class TdfLaunch {
 public:
  static constexpr bool kPersistent = false;

  TdfLaunch(const TdfSites& sites, sim::PackedInjectionMap& inj,
            const sim::NodeTrace& trace)
      : sites_(sites), inj_(inj), trace_(trace) {}

  template <class Eval>
  bool launch(std::size_t t, Eval& ev, FrameTally& tally) {
    const std::uint64_t act = t == 0 ? 0 : sites_.activation(trace_, t);
    if (act == 0) {
      ++tally.tdf_skipped;
      return false;  // no launch: every machine follows the trace
    }
    tally.tdf_activations += static_cast<std::uint64_t>(std::popcount(act));
    inj_.clear();
    for_each_slot(act, [&](std::size_t j) {
      inj_.add(sites_[j].node, sim::kStemPin, sites_[j].stale, 1ULL << (j + 1));
    });
    ev.reload(t);
    return true;
  }

 private:
  const TdfSites& sites_;
  sim::PackedInjectionMap& inj_;
  const sim::NodeTrace& trace_;
};

/// First PO detection time per fault, and every time unit whose scan-out
/// (the state latched at its end) would detect it.
struct TimesObs : ObserverBase {
  std::span<std::int64_t> first_po;
  std::span<util::Bitset> state_diff;
  std::uint64_t det = 0;

  template <class Eval>
  void frame(std::size_t t, const Eval& ev) {
    const std::uint64_t fresh = ev.po_detections() & ~det;
    det |= fresh;
    for_each_slot(fresh, [&](std::size_t j) {
      first_po[j] = static_cast<std::int64_t>(t);
    });
  }
  [[nodiscard]] bool wants_state(bool /*last*/) const { return true; }
  template <class Eval>
  void state(std::size_t t, const Eval& ev) {
    for_each_slot(ev.state_detections(),
                  [&](std::size_t j) { state_diff[j].set(t); });
  }
  [[nodiscard]] bool done(bool /*last*/) const { return false; }
  template <class Eval>
  void scan_out(const Eval& /*ev*/, bool /*valid*/) {}
};

/// First PO detection times plus the whole test's detection mask
/// (final scan-out included); stops once everything is PO-detected.
struct PrefixObs : ObserverBase {
  std::uint64_t full;
  std::span<std::int64_t> first_po;
  std::uint64_t det = 0;

  template <class Eval>
  void frame(std::size_t t, const Eval& ev) {
    const std::uint64_t fresh = ev.po_detections() & ~det;
    det |= fresh;
    for_each_slot(fresh, [&](std::size_t j) {
      first_po[j] = static_cast<std::int64_t>(t);
    });
  }
  [[nodiscard]] bool wants_state(bool last) const { return last; }
  [[nodiscard]] bool done(bool /*last*/) const { return det == full; }
  template <class Eval>
  void scan_out(const Eval& ev, bool valid) {
    if (valid) det |= ev.state_detections();
  }
};

/// Mismatch mask against an observed response.  Quiet frames and an
/// invalid scan-out compare the fault-free values, which mismatch all
/// slots uniformly; stops once every group slot mismatches.
struct ConsistencyObs : ObserverBase {
  std::uint64_t full;
  std::span<const Vector3> observed_pos;
  const Vector3& observed_scan_out;
  const sim::NodeTrace* trace;
  const netlist::Circuit& circuit;
  const util::Bitset& scan_mask;
  std::size_t len;
  std::uint64_t mismatch = 0;

  [[nodiscard]] bool quiet(std::size_t t) {
    const auto pos = circuit.primary_outputs();
    for (std::size_t i = 0; i < pos.size(); ++i) {
      mismatch |= uniform_mismatch(trace->value(t, pos[i]), observed_pos[t][i]);
    }
    return true;
  }
  template <class Eval>
  void frame(std::size_t t, const Eval& ev) {
    mismatch |= ev.po_mismatches(t, observed_pos[t]);
  }
  [[nodiscard]] bool wants_state(bool last) const { return last; }
  [[nodiscard]] bool done(bool /*last*/) const {
    return (mismatch & full) == full;
  }
  template <class Eval>
  void scan_out(const Eval& ev, bool valid) {
    if (valid) {
      mismatch |= ev.state_mismatches(observed_scan_out);
      return;
    }
    const Vector3 ff_free = trace->state_at_start(len);
    for (std::size_t i = 0; i < ff_free.size(); ++i) {
      if (scan_mask.test(i)) {
        mismatch |= uniform_mismatch(ff_free[i], observed_scan_out[i]);
      }
    }
  }
};

}  // namespace

template <class Obs>
void GroupWorker::run(const Vector3* scan_in, const Sequence& seq,
                      std::span<const FaultClassId> group,
                      const sim::NodeTrace* trace, Obs& obs) {
  obs::add(obs::Counter::FullPasses);
  if (faults_->model().frame_gated()) {
    // The trace is the activation oracle, and each active frame reloads
    // its state from it (no scan-in load).
    assert(trace != nullptr);
    tdf_sites_.build(*faults_, group);
    injections_.clear();
    TdfLaunch act(tdf_sites_, injections_, *trace);
    FullEval<std::uint64_t> ev(sim_, injections_, scan_mask_, seq, trace,
                               nullptr);
    frame_loop(ev, act, obs, seq.length());
  } else {
    build_group_injections(*faults_, group, injections_);
    AlwaysActive act;
    FullEval<std::uint64_t> ev(sim_, injections_, scan_mask_, seq, trace,
                               scan_in);
    frame_loop(ev, act, obs, seq.length());
  }
}

std::uint64_t GroupWorker::run_detect(const Vector3* scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      bool observe_scan_out, bool early_exit,
                                      const std::atomic<bool>* keep_going,
                                      const util::CancelToken* cancel,
                                      const sim::NodeTrace* trace) {
  DetectObs<std::uint64_t> obs{{keep_going, cancel},
                               group_slot_mask(group.size()),
                               observe_scan_out,
                               early_exit};
  run(scan_in, seq, group, trace, obs);
  return obs.det;
}

void GroupWorker::run_times(const Vector3& scan_in, const Sequence& seq,
                            std::span<const FaultClassId> group,
                            std::span<std::int64_t> first_po,
                            std::span<util::Bitset> state_diff,
                            const util::CancelToken* cancel,
                            const sim::NodeTrace* trace) {
  assert(first_po.size() == group.size());
  assert(state_diff.size() == group.size());
  TimesObs obs{{nullptr, cancel}, first_po, state_diff};
  run(&scan_in, seq, group, trace, obs);
}

std::uint64_t GroupWorker::run_prefix(const Vector3& scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      std::span<std::int64_t> first_po,
                                      const util::CancelToken* cancel,
                                      const sim::NodeTrace* trace) {
  assert(first_po.size() == group.size());
  PrefixObs obs{{nullptr, cancel}, group_slot_mask(group.size()), first_po};
  run(&scan_in, seq, group, trace, obs);
  return obs.det;
}

std::uint64_t GroupWorker::run_consistency(
    const Vector3& scan_in, const Sequence& seq,
    std::span<const sim::Vector3> observed_pos,
    const Vector3& observed_scan_out, std::span<const FaultClassId> group,
    const util::CancelToken* cancel, const sim::NodeTrace* trace) {
  assert(observed_pos.size() == seq.length());
  assert(observed_scan_out.size() == circuit_->num_flip_flops());
  ConsistencyObs obs{{nullptr, cancel},
                     group_slot_mask(group.size()),
                     observed_pos,
                     observed_scan_out,
                     trace,
                     *circuit_,
                     scan_mask_,
                     seq.length()};
  run(&scan_in, seq, group, trace, obs);
  return obs.mismatch;
}

}  // namespace scanc::fault
