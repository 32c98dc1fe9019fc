// BatchEngine implementation template, instantiated once per word type
// by the per-ISA translation units (batch_engine.cpp and the
// -mavx2/-mavx512f TUs).  Include this header only from those TUs.
//
// The PPSFP passes (detect_batch, detect_lanes) run one lane-masked
// frame loop, run_batch, on the same Activation idea as GroupWorker's
// frame loop (group_worker.cpp):
//
//   stuck-at   injections built once — one group splat across the lanes
//              (detect_batch) or one group per lane (detect_lanes) —
//              per-lane scan-in, and every lane whose test is still
//              running (t < length) is active
//   TDF        per-lane launch masks from each test's fault-free trace:
//              injections rebuilt and state reloaded per frame, latching
//              only where the observer needs it (detect_batch only)
//
// and a lane observer (per-lane detection masks).  Bit
// identity: lane l replicates the control flow of the GroupWorker
// full-kernel pass on test l, because every observation is masked with
// the lanes the per-test pass would observe *this frame* — inactive
// lanes carry stale diverged values (their state is only reloaded on
// active frames) and dead lanes keep evolving on all-X inputs; that is
// garbage by design and harmless because the masks keep it unobserved.
//
// The wide fault-parallel passes (detect_groups, times_groups,
// prefix_groups) have no loop of their own: they run GroupWorker's
// frame_loop (fault/frame_loop.hpp) with FullEval<W>, AlwaysActive and
// DetectObs<W> / TimesObs<W> / PrefixObs<W>, lane l carrying fault
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
    const bool gated = faults_->model().frame_gated();
    if (gated) {
      tdf_sites_.build(*faults_, group);
    } else {
      build_group_injections(*faults_, group, inj_);
    }
    // The stuck-at pass stops once no running lane can gain a detection;
    // the TDF pass always runs to the longest test.
    DetectLanes rec{sim::splat<W>(group_slot_mask(group.size())),
                    observe_scan_out, !gated, nullptr};
    run_batch(tests, rec);
    store_det(rec.det, det);
  }

  void detect_lanes(std::span<const LaneJob> jobs,
                    const util::CancelToken* cancel,
                    std::span<std::uint64_t> det) override {
    const std::size_t n = jobs.size();
    assert(n >= 1 && n <= kLanes && det.size() == n);
    assert(!faults_->model().frame_gated());
    obs::add(obs::Counter::PpsfpBatches);
    obs::add(obs::Counter::PpsfpTestsPacked, n);
    inj_.clear();
    std::uint64_t full[kLanes] = {};
    std::array<BatchTestRef, kLanes> tests{};
    for (std::size_t l = 0; l < n; ++l) {
      full[l] = add_lane_group(l, jobs[l].group);
      tests[l] = jobs[l].test;
    }
    DetectLanes rec{sim::load_lanes<W>(full), /*observe_scan_out=*/true,
                    /*early_exit=*/true, cancel};
    run_batch({tests.data(), n}, rec);
    store_det(rec.det, det);
  }

  void detect_groups(const sim::Vector3* scan_in, const sim::Sequence& seq,
                     std::span<const FaultClassId> list,
                     std::size_t first_group, std::size_t ngroups,
                     bool observe_scan_out, bool early_exit,
                     const std::atomic<bool>* keep_going,
                     const util::CancelToken* cancel,
                     std::span<std::uint64_t> det) override {
    assert(det.size() == ngroups);
    const W full = lane_groups(list, first_group, ngroups);
    DetectObs<W> obs{{keep_going, cancel, ngroups},
                     full,
                     observe_scan_out,
                     early_exit};
    run_groups(scan_in, seq, obs);
    store_det(obs.det, det);
  }

  void times_groups(const sim::Vector3& scan_in, const sim::Sequence& seq,
                    std::span<const FaultClassId> list,
                    std::size_t first_group, std::size_t ngroups,
                    std::span<std::int64_t> first_po,
                    std::span<util::Bitset> state_diff,
                    const util::CancelToken* cancel) override {
    lane_groups(list, first_group, ngroups);
    TimesObs<W> obs{{nullptr, cancel, ngroups}, first_po, state_diff};
    run_groups(&scan_in, seq, obs);
  }

  void prefix_groups(const sim::Vector3& scan_in, const sim::Sequence& seq,
                     std::span<const FaultClassId> list,
                     std::size_t first_group, std::size_t ngroups,
                     std::span<std::int64_t> first_po,
                     const util::CancelToken* cancel,
                     std::span<std::uint64_t> det) override {
    assert(det.size() == ngroups);
    const W full = lane_groups(list, first_group, ngroups);
    PrefixObs<W> obs{{nullptr, cancel, ngroups}, full, first_po};
    run_groups(&scan_in, seq, obs);
    store_det(obs.det, det);
  }

 private:
  // --- shared helpers --------------------------------------------------

  /// Word with lane l all-ones iff pred(l); lanes >= n are zero.
  template <class Pred>
  [[nodiscard]] static W lane_mask(std::size_t n, Pred pred) {
    std::uint64_t m[kLanes] = {};
    for (std::size_t l = 0; l < n; ++l) m[l] = pred(l) ? ~0ULL : 0;
    return sim::load_lanes<W>(m);
  }

  /// det[l] = lane l of `w` for the first det.size() lanes.
  static void store_det(const W& w, std::span<std::uint64_t> det) {
    std::uint64_t all[kLanes];
    sim::store_lanes(w, all);
    std::copy_n(all, det.size(), det.begin());
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

  /// Registers `group`'s stuck-line injections in lane l only (slot j+1
  /// = group[j]) and returns the lane's slot mask.
  std::uint64_t add_lane_group(std::size_t l,
                               std::span<const FaultClassId> group) {
    std::uint64_t m[kLanes] = {};
    for (std::size_t j = 0; j < group.size(); ++j) {
      const Fault& f = faults_->representative(group[j]);
      m[l] = 1ULL << (j + 1);
      inj_.add(f.node, f.pin, f.value, sim::load_lanes<W>(m));
    }
    return group_slot_mask(group.size());
  }

  /// Rebuilds inj_ with lane l carrying group first_group + l of `list`
  /// and returns the lanes' slot masks.
  W lane_groups(std::span<const FaultClassId> list, std::size_t first_group,
                std::size_t ngroups) {
    assert(ngroups >= 1 && ngroups <= kLanes);
    inj_.clear();
    std::uint64_t full[kLanes] = {};
    for (std::size_t l = 0; l < ngroups; ++l) {
      const std::size_t base = (first_group + l) * kGroupSize;
      full[l] = add_lane_group(
          l, list.subspan(base, std::min(kGroupSize, list.size() - base)));
    }
    return sim::load_lanes<W>(full);
  }

  /// The wide fault-parallel pass: the lanes built by lane_groups run
  /// one broadcast test on the shared frame loop under `obs`.
  template <class Obs>
  void run_groups(const sim::Vector3* scan_in, const sim::Sequence& seq,
                  Obs& obs) {
    assert(!faults_->model().frame_gated());
    obs::add(obs::Counter::WideFpPasses);
    obs::add(obs::Counter::FullPasses, obs.lanes);
    FullEval<W> ev(sim_, inj_, scan_mask_, seq, /*trace=*/nullptr, scan_in);
    AlwaysActive act;
    frame_loop(ev, act, obs, seq.length());
  }

  /// Rebuilds inj_ from the per-lane activation masks act_: site j gets
  /// one wide injection whose lane l mask is slot j+1 iff lane l launches
  /// it.
  void build_tdf_injections(std::size_t n) {
    inj_.clear();
    for (std::size_t j = 0; j < tdf_sites_.size(); ++j) {
      const std::uint64_t slot = 1ULL << (j + 1);
      std::uint64_t m[kLanes] = {};
      bool used = false;
      for (std::size_t l = 0; l < n; ++l) {
        if ((act_[l] & slot) != 0) {
          m[l] = slot;
          used = true;
        }
      }
      if (used) {
        inj_.add(tdf_sites_[j].node, sim::kStemPin, tdf_sites_[j].stale,
                 sim::load_lanes<W>(m));
      }
    }
  }

  // --- the lane observer -------------------------------------------------
  //
  // frame() sees each frame's PO detections with the active lanes;
  // wants_state(finals) asks the TDF activation to latch (finals: active
  // lanes on their test's last frame); state() sees every latch; done()
  // ends the pass early.

  /// Per-lane detection masks (detect_batch, detect_lanes).
  struct DetectLanes {
    W full;
    bool observe_scan_out;
    bool early_exit;
    const util::CancelToken* cancel;
    W det = sim::zero<W>();

    void frame(const W& active, const W& po) { det = det | (po & active); }
    [[nodiscard]] bool wants_state(const W& finals) const {
      return observe_scan_out && sim::any(finals);
    }
    void state(const W& finals, const BatchEngineImpl& eng) {
      if (wants_state(finals)) {
        det = det | (eng.state_detections() & finals);
      }
    }
    // No lane that runs on (`running`) can still gain a detection:
    // saturated lanes stop as run_detect's early exit does (per-lane det
    // is capped at `full`), and finished lanes are never observed again.
    [[nodiscard]] bool done(const W& running) const {
      return early_exit && !sim::any((det ^ full) & running);
    }
    [[nodiscard]] bool interrupted() const {
      return cancel != nullptr && cancel->stop_requested();
    }
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

  /// One pass over `tests` (lane l = tests[l]) with the faults already
  /// registered: inj_ under stuck-at, tdf_sites_ under a frame-gated
  /// model.
  void run_batch(std::span<const BatchTestRef> tests, DetectLanes& rec) {
    const std::size_t n = tests.size();
    const bool gated = faults_->model().frame_gated();
    obs::add(obs::Counter::FullPasses, n);
    if (gated) {
      assert(std::all_of(tests.begin(), tests.end(), [](const auto& t) {
        return t.trace != nullptr && t.trace->length() == t.seq->length();
      }));
      sim_.reset(nullptr);
    } else {
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
      if (rec.interrupted()) break;  // partial masks
      const W active = launch(tests, t, gated, tally);
      if (!sim::any(active)) continue;
      sim_.apply_frame({pi_.data(), n}, &inj_);
      rec.frame(active, po_detections(sim_));
      const W finals = active & lane_mask(n, [&](std::size_t l) {
                         return tests[l].seq->length() == t + 1;
                       });
      if (!gated || rec.wants_state(finals)) {
        sim_.latch(&inj_);
        rec.state(finals, *this);
      }
      if (rec.done(active & ~finals)) break;
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

template <class W>
[[nodiscard]] std::unique_ptr<BatchEngine> make_batch_engine_impl(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask) {
  return std::make_unique<BatchEngineImpl<W>>(circuit, faults,
                                              std::move(scan_mask));
}

}  // namespace scanc::fault
