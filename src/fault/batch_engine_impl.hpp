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
//   TDF        TdfLaunch<W> (fault/frame_loop.hpp) with one group in
//              every lane and each lane's own test trace: injections
//              rebuilt and state reloaded per frame, latching only where
//              the observer needs it (detect_batch only)
//
// and a lane observer (per-lane detection masks).  Bit
// identity: lane l replicates the control flow of the GroupWorker
// full-kernel pass on test l, because every observation is masked with
// the lanes the per-test pass would observe *this frame* — inactive
// lanes carry stale diverged values (their state is only reloaded on
// active frames) and dead lanes keep evolving on all-X inputs; that is
// garbage by design and harmless because the masks keep it unobserved.
//
// The Session frames (session_frame, tdf_session_frame) step one frame
// per call; the Session owns the state between calls (a SessionChunkImpl
// per chunk of stuck-at groups, the fault-free frame under transition
// faults).
//
// The wide fault-parallel passes (detect_groups, times_groups,
// prefix_groups) have no loop of their own: they run GroupWorker's
// frame_loop (fault/frame_loop.hpp) with FullEval<W>, AlwaysActive or
// TdfLaunch<W>, and DetectObs<W> / TimesObs<W> / PrefixObs<W>, lane l
// carrying fault group first_group + l under the broadcast test.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "fault/batch_engine.hpp"
#include "fault/frame_common.hpp"
#include "fault/frame_loop.hpp"
#include "fault/group_exec.hpp"
#include "fault/group_worker.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

/// BatchEngineImpl<W>'s SessionChunk: the compiled injections of its
/// groups and their FF state, one word pair per flip-flop.
template <class W>
class SessionChunkImpl final : public SessionChunk {
 public:
  static constexpr std::size_t kLanes = sim::kWordLanes<W>;
  static_assert(kLanes <= 64, "store() takes a 64-bit lane mask");

  explicit SessionChunkImpl(const netlist::Circuit& circuit)
      : inj(circuit), ff(circuit.num_flip_flops()) {}

  void load(std::span<const sim::PackedV3> src) override {
    const std::size_t nff = ff.size();
    const std::size_t n = nff == 0 ? 0 : src.size() / nff;
    assert(n <= kLanes);
    std::uint64_t is0[kLanes];
    std::uint64_t is1[kLanes];
    std::fill_n(is0, kLanes, ~0ULL);  // unused lanes: X
    std::fill_n(is1, kLanes, ~0ULL);
    for (std::size_t i = 0; i < nff; ++i) {
      for (std::size_t l = 0; l < n; ++l) {
        is0[l] = src[l * nff + i].is0;
        is1[l] = src[l * nff + i].is1;
      }
      ff[i] = {sim::load_lanes<W>(is0), sim::load_lanes<W>(is1)};
    }
  }

  void store(std::span<sim::PackedV3> dst,
             std::uint64_t lanes) const override {
    const std::size_t nff = ff.size();
    std::uint64_t is0[kLanes];
    std::uint64_t is1[kLanes];
    for (std::size_t i = 0; i < nff; ++i) {
      sim::store_lanes(ff[i].is0, is0);
      sim::store_lanes(ff[i].is1, is1);
      for (std::size_t l = 0; l < kLanes; ++l) {
        if ((lanes >> l & 1) != 0) dst[l * nff + i] = {is0[l], is1[l]};
      }
    }
  }

  sim::InjectionMap<W> inj;
  std::vector<sim::WideV3<W>> ff;  // per FF, as the logic reads it
};

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
        inj_(circuit),
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
      lane_sites_[0].build(*faults_, group);
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
      full[l] = add_lane_group(inj_, l, jobs[l].group);
      tests[l] = jobs[l].test;
    }
    inj_.compile();
    DetectLanes rec{sim::load_lanes<W>(full), /*observe_scan_out=*/true,
                    /*early_exit=*/true, cancel};
    run_batch({tests.data(), n}, rec);
    store_det(rec.det, det);
  }

  void detect_groups(const sim::Vector3* scan_in, const sim::Sequence& seq,
                     const sim::NodeTrace* trace,
                     std::span<const FaultClassId> list,
                     std::size_t first_group, std::size_t ngroups,
                     bool observe_scan_out, bool early_exit,
                     const std::atomic<bool>* keep_going,
                     const util::CancelToken* cancel,
                     std::span<std::uint64_t> det) override {
    assert(det.size() == ngroups);
    DetectObs<W> obs{{keep_going, cancel, ngroups},
                     lane_slots(list, first_group, ngroups),
                     observe_scan_out,
                     early_exit};
    run_groups(scan_in, seq, trace, list, first_group, obs);
    store_det(obs.det, det);
  }

  void times_groups(const sim::Vector3& scan_in, const sim::Sequence& seq,
                    const sim::NodeTrace* trace,
                    std::span<const FaultClassId> list,
                    std::size_t first_group, std::size_t ngroups,
                    std::span<std::int64_t> first_po,
                    std::span<util::Bitset> state_diff,
                    const util::CancelToken* cancel) override {
    TimesObs<W> obs{{nullptr, cancel, ngroups}, first_po, state_diff};
    run_groups(&scan_in, seq, trace, list, first_group, obs);
  }

  void prefix_groups(const sim::Vector3& scan_in, const sim::Sequence& seq,
                     const sim::NodeTrace* trace,
                     std::span<const FaultClassId> list,
                     std::size_t first_group, std::size_t ngroups,
                     std::span<std::int64_t> first_po,
                     const util::CancelToken* cancel,
                     std::span<std::uint64_t> det) override {
    assert(det.size() == ngroups);
    PrefixObs<W> obs{{nullptr, cancel, ngroups},
                     lane_slots(list, first_group, ngroups),
                     first_po};
    run_groups(&scan_in, seq, trace, list, first_group, obs);
    store_det(obs.det, det);
  }

  std::unique_ptr<SessionChunk> make_session_chunk(
      std::span<const FaultClassId> list,
      std::span<const std::uint32_t> groups) override {
    assert(!groups.empty() && groups.size() <= kLanes);
    assert(!faults_->model().frame_gated());
    auto chunk = std::make_unique<SessionChunkImpl<W>>(*circuit_);
    for (std::size_t l = 0; l < groups.size(); ++l) {
      add_lane_group(chunk->inj, l, group_of(list, groups[l]));
    }
    chunk->inj.compile();
    sim_.reset(&chunk->inj);
    sim_.get_ff_values(chunk->ff);
    return chunk;
  }

  void session_frame(SessionChunk& c, const sim::Vector3& pi,
                     std::span<std::uint64_t> det) override {
    assert(det.size() <= kLanes);
    assert(dynamic_cast<SessionChunkImpl<W>*>(&c) != nullptr);
    auto& chunk = static_cast<SessionChunkImpl<W>&>(c);
    // sim_ is shared with this engine's other passes and with other
    // chunks, so every frame installs the whole state it reads: the FF
    // values, and the constants with this chunk's constant-stem
    // injections (the frame rewrites the PIs and every gate).
    sim_.set_ff_values(chunk.ff);
    sim_.load_constants(&chunk.inj);
    sim_.apply_frame(pi, &chunk.inj);
    store_det(po_detections(sim_), det);
    sim_.latch(&chunk.inj);
    sim_.get_ff_values(chunk.ff);
  }

  std::size_t tdf_session_frame(std::span<const sim::V3> prev,
                                const sim::Vector3& pi,
                                std::span<const TdfLaunchJob> jobs,
                                std::span<std::uint64_t> det) override {
    const std::size_t n = jobs.size();
    assert(n >= 1 && n <= kLanes && det.size() == n);
    std::array<TdfLane, kLanes> lanes{};
    for (std::size_t l = 0; l < n; ++l) lanes[l].sites = jobs[l].sites;
    TdfLaunch<W> launch(inj_, {lanes.data(), n});
    for (std::size_t l = 0; l < n; ++l) launch.set_act(l, jobs[l].act);
    launch.inject();
    // No reset: a transition launch never injects a constant (it never
    // toggles), and the state load and the frame overwrite every other
    // node in every lane.
    sim_.load_state_after(prev, &inj_);
    sim_.apply_frame(pi, &inj_);
    store_det(po_detections(sim_), det);
    sim_.latch(&inj_);
    std::size_t latched = 0;
    std::uint64_t eff[kLanes];
    for (std::size_t i = 0; i < circuit_->num_flip_flops(); ++i) {
      sim::store_lanes(sim::wide_detections(sim_.captured(i)), eff);
      for (std::size_t l = 0; l < n; ++l) {
        latched += static_cast<std::size_t>(std::popcount(eff[l]));
      }
    }
    return latched;
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

  /// Registers `group`'s stuck-line injections in lane l of `inj` only
  /// (slot j+1 = group[j]) and returns the lane's slot mask.
  std::uint64_t add_lane_group(sim::InjectionMap<W>& inj, std::size_t l,
                               std::span<const FaultClassId> group) const {
    std::uint64_t m[kLanes] = {};
    for (std::size_t j = 0; j < group.size(); ++j) {
      const Fault& f = faults_->representative(group[j]);
      m[l] = 1ULL << (j + 1);
      inj.add(f.node, f.pin, f.value, sim::load_lanes<W>(m));
    }
    return group_slot_mask(group.size());
  }

  /// Group g of `list` (<= kGroupSize classes from g * kGroupSize on).
  [[nodiscard]] static std::span<const FaultClassId> group_of(
      std::span<const FaultClassId> list, std::size_t g) {
    const std::size_t base = g * kGroupSize;
    return list.subspan(base, std::min(kGroupSize, list.size() - base));
  }

  /// Slot masks of the ngroups groups from first_group on, lane l =
  /// group first_group + l (lanes >= ngroups empty).
  [[nodiscard]] static W lane_slots(std::span<const FaultClassId> list,
                                    std::size_t first_group,
                                    std::size_t ngroups) {
    assert(ngroups >= 1 && ngroups <= kLanes);
    std::uint64_t full[kLanes] = {};
    for (std::size_t l = 0; l < ngroups; ++l) {
      full[l] = group_slot_mask(group_of(list, first_group + l).size());
    }
    return sim::load_lanes<W>(full);
  }

  /// The wide fault-parallel pass: lane l carries group first_group + l
  /// of `list` (obs.lanes groups) through one broadcast test on the
  /// shared frame loop under `obs` — stuck-at injections registered once
  /// per pass, or the transition launch read from `trace`.
  template <class Obs>
  void run_groups(const sim::Vector3* scan_in, const sim::Sequence& seq,
                  const sim::NodeTrace* trace,
                  std::span<const FaultClassId> list,
                  std::size_t first_group, Obs& obs) {
    const std::size_t ngroups = obs.lanes;
    assert(ngroups >= 1 && ngroups <= kLanes);
    obs::add(obs::Counter::WideFpPasses);
    obs::add(obs::Counter::FullPasses, ngroups);
    inj_.clear();
    if (faults_->model().frame_gated()) {
      // The trace is the activation oracle, and each active frame
      // reloads its state from it (no scan-in load).
      assert(trace != nullptr && trace->length() == seq.length());
      std::array<TdfLane, kLanes> lanes{};
      for (std::size_t l = 0; l < ngroups; ++l) {
        lane_sites_[l].build(*faults_, group_of(list, first_group + l));
        lanes[l] = TdfLane{&lane_sites_[l], trace};
      }
      TdfLaunch<W> act(inj_, {lanes.data(), ngroups});
      FullEval<W> ev(sim_, inj_, scan_mask_, seq, trace, nullptr);
      frame_loop(ev, act, obs, seq.length());
    } else {
      for (std::size_t l = 0; l < ngroups; ++l) {
        add_lane_group(inj_, l, group_of(list, first_group + l));
      }
      inj_.compile();
      FullEval<W> ev(sim_, inj_, scan_mask_, seq, nullptr, scan_in);
      AlwaysActive act;
      frame_loop(ev, act, obs, seq.length());
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
  /// that launch a transition (`tdf`), with inj_ rebuilt and their state
  /// reloaded from their fault-free traces.
  W launch(std::span<const BatchTestRef> tests, std::size_t t,
           TdfLaunch<W>* tdf, FrameTally& tally) {
    const std::size_t n = tests.size();
    if (tdf == nullptr) {
      for (std::size_t l = 0; l < n; ++l) {
        const bool live = t < tests[l].seq->length();
        pi_[l] = live ? &tests[l].seq->frames[t] : nullptr;
        tally.simulated += live ? 1 : 0;
      }
      return lane_mask(n, [&](std::size_t l) { return pi_[l] != nullptr; });
    }
    const bool any_act = tdf->activate(t);
    for (std::size_t l = 0; l < n; ++l) {
      const bool live = t < tests[l].seq->length();
      if (live && tdf->act(l) == 0) ++tally.tdf_skipped;
    }
    if (!any_act) return sim::zero<W>();
    tdf->inject();
    tally.tdf_activations += tdf->activations();
    std::array<const sim::NodeTrace*, kLanes> from{};
    for (std::size_t l = 0; l < n; ++l) {
      pi_[l] = nullptr;
      if (tdf->act(l) == 0) continue;
      ++tally.simulated;
      from[l] = tests[l].trace;
      pi_[l] = &tests[l].seq->frames[t];
    }
    sim_.load_state({from.data(), n}, t, &inj_);
    return lane_mask(n, [&](std::size_t l) { return tdf->act(l) != 0; });
  }

  /// One pass over `tests` (lane l = tests[l]) with the faults already
  /// registered: inj_ under stuck-at, lane_sites_[0] (the one group of
  /// every lane) under a frame-gated model.
  void run_batch(std::span<const BatchTestRef> tests, DetectLanes& rec) {
    const std::size_t n = tests.size();
    const bool gated = faults_->model().frame_gated();
    obs::add(obs::Counter::FullPasses, n);
    std::array<TdfLane, kLanes> lanes{};
    if (gated) {
      assert(std::all_of(tests.begin(), tests.end(), [](const auto& t) {
        return t.trace != nullptr && t.trace->length() == t.seq->length();
      }));
      for (std::size_t l = 0; l < n; ++l) {
        lanes[l] = TdfLane{&lane_sites_[0], tests[l].trace};
      }
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
    TdfLaunch<W> tdf(inj_, {lanes.data(), n});
    FrameTally tally;
    // Frame 0 has no launch frame and is never active under TDF.
    for (std::size_t t = gated ? 1 : 0; t < max_len; ++t) {
      if (rec.interrupted()) break;  // partial masks
      const W active = launch(tests, t, gated ? &tdf : nullptr, tally);
      if (!sim::any(active)) continue;
      sim_.apply_frame({pi_.data(), n}, &inj_);
      tally.patched += inj_.patched_gates();
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
  std::array<TdfSites, kLanes> lane_sites_;
  std::array<const sim::Vector3*, kLanes> pi_{};
};

template <class W>
[[nodiscard]] std::unique_ptr<BatchEngine> make_batch_engine_impl(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask) {
  return std::make_unique<BatchEngineImpl<W>>(circuit, faults,
                                              std::move(scan_mask));
}

}  // namespace scanc::fault
