// BatchEngine implementation template, instantiated once per word type
// by the per-ISA translation units (batch_engine.cpp and the
// -mavx2/-mavx512f TUs).  Include this header only from those TUs.
//
// The PPSFP passes (detect_batch, times_batch) run one lane-masked frame
// loop, run_batch, on the same Activation idea as GroupWorker's frame
// loop (group_worker.cpp):
//
//   stuck-at   splat injections built once, per-lane scan-in, and every
//              lane whose test is still running (t < length) is active
//   TDF        per-lane launch masks from each test's fault-free trace:
//              injections rebuilt and state reloaded per frame, latching
//              only where the observer needs it
//
// and a lane observer (detection masks or detection times).  Bit
// identity: lane l replicates the control flow of the GroupWorker
// full-kernel pass on test l, because every observation is masked with
// the lanes the per-test pass would observe *this frame* — inactive
// lanes carry stale diverged values (their state is only reloaded on
// active frames) and dead lanes keep evolving on all-X inputs; that is
// garbage by design and harmless because the masks keep it unobserved.
//
// The wide fault-parallel pass (detect_groups) has no loop of its own:
// it runs GroupWorker's frame_loop (fault/frame_loop.hpp) with
// FullEval<W>, AlwaysActive and DetectObs<W>, lane l carrying fault
// group first_group + l under the broadcast test.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "fault/batch_engine.hpp"
#include "fault/frame_common.hpp"
#include "fault/frame_loop.hpp"
#include "fault/group_exec.hpp"
#include "fault/group_worker.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

template <class W>
class BatchEngineImpl final : public BatchEngine {
 public:
  static constexpr std::size_t kLanes = sim::kWordLanes<W>;

  BatchEngineImpl(const netlist::Circuit& circuit, const FaultList& faults,
                  util::Bitset scan_mask)
      : circuit_(&circuit),
        faults_(&faults),
        scan_mask_(std::move(scan_mask)),
        sim_(circuit),
        inj_(circuit.num_nodes()),
        state_scratch_(kLanes) {
    assert(scan_mask_.size() == circuit.num_flip_flops());
  }

  [[nodiscard]] std::size_t lanes() const noexcept override {
    return kLanes;
  }

  void detect_batch(std::span<const BatchTestRef> tests,
                    std::span<const FaultClassId> group,
                    bool observe_scan_out,
                    std::span<std::uint64_t> det) override {
    assert(!tests.empty() && tests.size() <= kLanes);
    assert(det.size() == tests.size());
    obs::add(obs::Counter::PpsfpBatches);
    obs::add(obs::Counter::PpsfpTestsPacked, tests.size());
    // The stuck-at pass stops once every lane is saturated; the TDF pass
    // always runs to the longest test.
    DetectLanes rec{sim::splat<W>(group_slot_mask(group.size())),
                    observe_scan_out,
                    !faults_->model().frame_gated()};
    run_batch(tests, group, rec);
    for (std::size_t l = 0; l < tests.size(); ++l) {
      det[l] = sim::lane(rec.det, l);
    }
  }

  void times_batch(std::span<const BatchTestRef> tests,
                   std::span<const FaultClassId> group, std::size_t stride,
                   std::span<std::int64_t> first_po,
                   std::span<util::Bitset> state_diff) override {
    assert(!tests.empty() && tests.size() <= kLanes);
    assert(stride >= group.size());
    assert(first_po.size() >= (tests.size() - 1) * stride + group.size());
    assert(state_diff.size() >= (tests.size() - 1) * stride + group.size());
    obs::add(obs::Counter::PpsfpBatches);
    obs::add(obs::Counter::PpsfpTestsPacked, tests.size());
    TimesLanes rec{tests.size(), stride, first_po, state_diff};
    run_batch(tests, group, rec);
  }

  void detect_groups(const sim::Vector3* scan_in, const sim::Sequence& seq,
                     std::span<const FaultClassId> list,
                     std::size_t first_group, std::size_t ngroups,
                     bool observe_scan_out, bool early_exit,
                     const std::atomic<bool>* keep_going,
                     const util::CancelToken* cancel,
                     std::span<std::uint64_t> det) override;

 private:
  // --- shared helpers --------------------------------------------------

  /// Word with lane l all-ones iff pred(l); lanes >= n are zero.
  template <class Pred>
  [[nodiscard]] static W lane_mask(std::size_t n, Pred pred) {
    W m = sim::zero<W>();
    for (std::size_t l = 0; l < n; ++l) {
      if (pred(l)) sim::set_lane(m, l, ~0ULL);
    }
    return m;
  }

  [[nodiscard]] static std::size_t max_length(
      std::span<const BatchTestRef> tests) {
    std::size_t n = 0;
    for (const BatchTestRef& t : tests) {
      n = std::max(n, t.seq->length());
    }
    return n;
  }

  [[nodiscard]] W state_detections() const {
    return fault::state_detections(sim_, scan_mask_);
  }

  /// Rebuilds inj_ from the per-lane activation masks act_: site j gets
  /// one wide injection whose lane l mask is slot j+1 iff lane l launches
  /// it.
  void build_tdf_injections(std::size_t n) {
    inj_.clear();
    for (std::size_t j = 0; j < tdf_sites_.size(); ++j) {
      const std::uint64_t slot = 1ULL << (j + 1);
      W m = sim::zero<W>();
      bool used = false;
      for (std::size_t l = 0; l < n; ++l) {
        if ((act_[l] & slot) != 0) {
          sim::set_lane(m, l, slot);
          used = true;
        }
      }
      if (used) {
        inj_.add(tdf_sites_[j].node, sim::kStemPin, tdf_sites_[j].stale, m);
      }
    }
  }

  // --- lane observers ----------------------------------------------------
  //
  // frame() sees each frame's PO detections with the active lanes;
  // wants_state(finals) asks the TDF activation to latch (finals: active
  // lanes on their test's last frame); state() sees every latch; done()
  // ends the pass early.

  /// Per-lane detection masks (detect_batch).
  struct DetectLanes {
    W full;
    bool observe_scan_out;
    bool early_exit;
    W det = sim::zero<W>();

    void frame(std::size_t /*t*/, const W& active, const W& po) {
      det = det | (po & active);
    }
    [[nodiscard]] bool wants_state(const W& finals) const {
      return observe_scan_out && sim::any(finals);
    }
    void state(std::size_t /*t*/, const W& /*active*/, const W& finals,
               const BatchEngineImpl& eng) {
      if (wants_state(finals)) {
        det = det | (eng.state_detections() & finals);
      }
    }
    // All lanes saturated: later frames cannot add detections (per-lane
    // det is capped at `full`, matching run_detect's early exit).
    [[nodiscard]] bool done() const {
      return early_exit && !sim::any(det ^ full);
    }
  };

  /// Strided lane-major detection-time records (times_batch).
  struct TimesLanes {
    std::size_t n;
    std::size_t stride;
    std::span<std::int64_t> first_po;
    std::span<util::Bitset> state_diff;
    W det = sim::zero<W>();

    void frame(std::size_t t, const W& active, const W& po) {
      const W fresh = po & active & ~det;
      det = det | fresh;
      for (std::size_t l = 0; l < n; ++l) {
        for_each_slot(sim::lane(fresh, l), [&](std::size_t j) {
          first_po[l * stride + j] = static_cast<std::int64_t>(t);
        });
      }
    }
    [[nodiscard]] bool wants_state(const W& /*finals*/) const { return true; }
    void state(std::size_t t, const W& active, const W& /*finals*/,
               const BatchEngineImpl& eng) {
      const W bits = eng.state_detections() & active;
      for (std::size_t l = 0; l < n; ++l) {
        for_each_slot(sim::lane(bits, l), [&](std::size_t j) {
          state_diff[l * stride + j].set(t);
        });
      }
    }
    [[nodiscard]] bool done() const { return false; }
  };

  // --- the PPSFP frame loop ----------------------------------------------

  /// Activation for frame t: fills pi_ with each lane's stimulus (nullptr
  /// = idle lane) and returns the lanes observed this frame.  Stuck-at:
  /// every lane whose test is still running.  Frame-gated: the lanes
  /// that launch a transition, with inj_ rebuilt and their state
  /// reloaded from their fault-free traces.
  W launch(std::span<const BatchTestRef> tests, std::size_t t, bool gated,
           FrameTally& tally) {
    const std::size_t n = tests.size();
    if (!gated) {
      for (std::size_t l = 0; l < n; ++l) {
        const bool live = t < tests[l].seq->length();
        pi_[l] = live ? &tests[l].seq->frames[t] : nullptr;
        tally.simulated += live ? 1 : 0;
      }
      return lane_mask(n, [&](std::size_t l) { return pi_[l] != nullptr; });
    }
    bool any_act = false;
    for (std::size_t l = 0; l < n; ++l) {
      const bool live = t < tests[l].seq->length();
      act_[l] = live ? tdf_sites_.activation(*tests[l].trace, t) : 0;
      if (live && act_[l] == 0) ++tally.tdf_skipped;
      any_act |= act_[l] != 0;
    }
    if (!any_act) return sim::zero<W>();
    build_tdf_injections(n);
    std::array<const sim::Vector3*, kLanes> state{};
    for (std::size_t l = 0; l < n; ++l) {
      pi_[l] = nullptr;
      if (act_[l] == 0) continue;
      tally.tdf_activations +=
          static_cast<std::uint64_t>(std::popcount(act_[l]));
      ++tally.simulated;
      state_scratch_[l] = tests[l].trace->state_at_start(t);
      state[l] = &state_scratch_[l];
      pi_[l] = &tests[l].seq->frames[t];
    }
    sim_.load_state({state.data(), n}, &inj_);
    return lane_mask(n, [&](std::size_t l) { return act_[l] != 0; });
  }

  /// One PPSFP pass of `group` over `tests` (lane l = tests[l]).
  template <class Rec>
  void run_batch(std::span<const BatchTestRef> tests,
                 std::span<const FaultClassId> group, Rec& rec) {
    const std::size_t n = tests.size();
    const bool gated = faults_->model().frame_gated();
    obs::add(obs::Counter::FullPasses, n);
    if (gated) {
      tdf_sites_.build(*faults_, group);
      sim_.reset(nullptr);
    } else {
      build_group_injections(*faults_, group, inj_);
      sim_.reset(&inj_);
      std::array<const sim::Vector3*, kLanes> state{};
      bool any_state = false;
      for (std::size_t l = 0; l < n; ++l) {
        if (tests[l].scan_in == nullptr) continue;
        state_scratch_[l] = mask_scan_in(*tests[l].scan_in, scan_mask_);
        state[l] = &state_scratch_[l];
        any_state = true;
      }
      if (any_state) sim_.load_state({state.data(), n}, &inj_);
    }

    const std::size_t max_len = max_length(tests);
    FrameTally tally;
    // Frame 0 has no launch frame and is never active under TDF.
    for (std::size_t t = gated ? 1 : 0; t < max_len; ++t) {
      const W active = launch(tests, t, gated, tally);
      if (!sim::any(active)) continue;
      sim_.apply_frame({pi_.data(), n}, &inj_);
      rec.frame(t, active, po_detections(sim_));
      const W finals = active & lane_mask(n, [&](std::size_t l) {
                         return tests[l].seq->length() == t + 1;
                       });
      if (!gated || rec.wants_state(finals)) {
        sim_.latch(&inj_);
        rec.state(t, active, finals, *this);
      }
      if (rec.done()) break;
    }
  }


  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  sim::SeqSim<W> sim_;
  sim::InjectionMap<W> inj_;
  std::vector<sim::Vector3> state_scratch_;
  TdfSites tdf_sites_;
  std::array<const sim::Vector3*, kLanes> pi_{};
  std::array<std::uint64_t, kLanes> act_{};
};

// --- wide fault-parallel pass ------------------------------------------

template <class W>
void BatchEngineImpl<W>::detect_groups(
    const sim::Vector3* scan_in, const sim::Sequence& seq,
    std::span<const FaultClassId> list, std::size_t first_group,
    std::size_t ngroups, bool observe_scan_out, bool early_exit,
    const std::atomic<bool>* keep_going, const util::CancelToken* cancel,
    std::span<std::uint64_t> det_out) {
  assert(ngroups >= 1 && ngroups <= kLanes);
  assert(det_out.size() == ngroups);
  assert(!faults_->model().frame_gated());
  obs::add(obs::Counter::WideFpPasses);
  obs::add(obs::Counter::FullPasses, ngroups);

  // Per-lane injections: lane l carries group first_group + l; every
  // lane runs the same broadcast test on the shared frame loop.
  inj_.clear();
  W full = sim::zero<W>();
  for (std::size_t l = 0; l < ngroups; ++l) {
    const std::size_t base = (first_group + l) * kGroupSize;
    const std::size_t gn = std::min(kGroupSize, list.size() - base);
    sim::set_lane(full, l, group_slot_mask(gn));
    for (std::size_t j = 0; j < gn; ++j) {
      const Fault& f = faults_->representative(list[base + j]);
      W m = sim::zero<W>();
      sim::set_lane(m, l, 1ULL << (j + 1));
      inj_.add(f.node, f.pin, f.value, m);
    }
  }
  FullEval<W> ev(sim_, inj_, scan_mask_, seq, /*trace=*/nullptr, scan_in);
  AlwaysActive act;
  DetectObs<W> obs{{keep_going, cancel, ngroups},
                   full,
                   observe_scan_out,
                   early_exit};
  frame_loop(ev, act, obs, seq.length());
  for (std::size_t l = 0; l < ngroups; ++l) det_out[l] = sim::lane(obs.det, l);
}

template <class W>
[[nodiscard]] std::unique_ptr<BatchEngine> make_batch_engine_impl(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask) {
  return std::make_unique<BatchEngineImpl<W>>(circuit, faults,
                                              std::move(scan_mask));
}

}  // namespace scanc::fault
