#include "fault/fault_sim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "fault/batch_engine.hpp"
#include "fault/frame_loop.hpp"
#include "util/telemetry.hpp"

namespace scanc::fault {

namespace {

/// One per FaultSimulator query: a trace span plus the query counter and
/// latency histogram.
struct QueryScope {
  explicit QueryScope(const char* name) noexcept : span(name, "query") {
    obs::add(obs::Counter::QueriesRun);
  }
  obs::Span span;
  obs::ScopedTimer timer{obs::Counter::kCount, obs::Histogram::QueryNanos};
};

}  // namespace

using netlist::Circuit;
using sim::Sequence;
using sim::Vector3;

FaultSimulator::FaultSimulator(const Circuit& circuit,
                               const FaultList& faults)
    : FaultSimulator(circuit, faults,
                     util::Bitset(circuit.num_flip_flops(), true)) {}

FaultSimulator::FaultSimulator(const Circuit& circuit,
                               const FaultList& faults,
                               util::Bitset scan_mask)
    : circuit_(&circuit),
      faults_(&faults),
      scan_mask_(std::move(scan_mask)),
      exec_(circuit, faults, scan_mask_) {
  assert(scan_mask_.size() == circuit.num_flip_flops());
  // Packing rank per class: the representative's position in the
  // level-major CSR order (for source nodes, the earliest position among
  // their fanouts).  collect() sorts targets by it, so it fixes which
  // faults share a group and the order of every per-target record; the
  // golden results pin it.
  const netlist::CsrSchedule& csr = circuit.csr();
  pack_rank_.resize(faults.num_classes());
  for (FaultClassId id = 0; id < pack_rank_.size(); ++id) {
    const Fault& f = faults.representative(id);
    std::uint32_t r = csr.rank[f.node];
    if (r == netlist::kNoRank) {
      for (const netlist::NodeId out : csr.fanouts(f.node)) {
        r = std::min(r, csr.rank[out]);
      }
    }
    pack_rank_[id] = r;
  }
}

void FaultSimulator::check_test(const Vector3* scan_in,
                                const Sequence& seq) const {
  if (scan_in != nullptr && scan_in->size() != circuit_->num_flip_flops()) {
    throw std::invalid_argument(
        "scan_in width " + std::to_string(scan_in->size()) +
        " != flip-flop count " +
        std::to_string(circuit_->num_flip_flops()));
  }
  for (const Vector3& pi : seq.frames) check_pi(pi);
}

void FaultSimulator::check_pi(const Vector3& pi) const {
  if (pi.size() != circuit_->num_inputs()) {
    throw std::invalid_argument(
        "PI width " + std::to_string(pi.size()) + " != input count " +
        std::to_string(circuit_->num_inputs()));
  }
}

std::vector<FaultClassId> FaultSimulator::collect(
    const FaultSet* targets) const {
  std::vector<FaultClassId> out;
  if (targets == nullptr) {
    out.resize(num_classes());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<FaultClassId>(i);
    }
  } else {
    assert(targets->size() == num_classes());
    out.reserve(targets->count());
    targets->for_each(
        [&](std::size_t i) { out.push_back(static_cast<FaultClassId>(i)); });
  }
  // Stable sort on an ascending-id list = total order (rank, class id):
  // every subset of targets is enumerated in the same relative order, as
  // the compaction procedures' record-merging walks require.
  std::stable_sort(out.begin(), out.end(),
                   [this](FaultClassId a, FaultClassId b) {
                     return pack_rank_[a] < pack_rank_[b];
                   });
  return out;
}

void FaultSimulator::reduce_masks(std::span<const FaultClassId> list,
                                  std::span<const std::uint64_t> group_masks,
                                  FaultSet& out) const {
  for (std::size_t g = 0; g < group_masks.size(); ++g) {
    const std::size_t base = g * kGroupSize;
    const std::size_t n = std::min(kGroupSize, list.size() - base);
    for (std::size_t j = 0; j < n; ++j) {
      if ((group_masks[g] & (1ULL << (j + 1))) != 0) out.set(list[base + j]);
    }
  }
}

sim::NodeTrace FaultSimulator::empty_trace(const Vector3* scan_in) const {
  if (scan_in == nullptr || scan_mask_.all()) {
    return sim::NodeTrace(*circuit_, scan_in);
  }
  // Partial scan: the trace must start from the masked state the
  // workers load (unscanned positions unknown).
  const Vector3 masked = mask_scan_in(*scan_in, scan_mask_);
  return sim::NodeTrace(*circuit_, &masked);
}

std::unique_ptr<const sim::NodeTrace> FaultSimulator::build_trace(
    const Vector3* scan_in, const Sequence& seq) const {
  if (!faults_->model().frame_gated()) return nullptr;
  auto trace = std::make_unique<sim::NodeTrace>(empty_trace(scan_in));
  trace->extend(seq.frames);
  obs::add(obs::Counter::TraceCacheMisses);
  return trace;
}

std::vector<sim::NodeTrace> FaultSimulator::build_traces(
    std::span<const BatchTest> tests) const {
  std::vector<sim::NodeTrace> traces;
  if (!faults_->model().frame_gated()) return traces;
  traces.reserve(tests.size());
  for (const BatchTest& t : tests) traces.push_back(empty_trace(t.scan_in));
  for (std::size_t base = 0; base < tests.size(); base += 64) {
    const std::size_t n = std::min<std::size_t>(64, tests.size() - base);
    std::vector<sim::NodeTrace*> ptrs(n);
    std::vector<std::span<const Vector3>> frames(n);
    for (std::size_t k = 0; k < n; ++k) {
      ptrs[k] = &traces[base + k];
      frames[k] = tests[base + k].seq->frames;
    }
    sim::NodeTrace::extend_batch(ptrs, frames);
  }
  obs::add(obs::Counter::TraceCacheMisses, tests.size());
  return traces;
}

template <class Fn>
void FaultSimulator::group_chunks(std::size_t ngroups, Fn fn) {
  // Wide lanes pay off only with two groups to pack; otherwise every
  // chunk is one group on the one-lane word.
  const sim::SimdConfig cfg = ngroups >= 2 ? simd_config() : sim::SimdConfig{};
  exec_.for_each_chunk(ngroups, cfg.lanes(), cfg, policy(),
                       [&](BatchEngine& eng, std::size_t first,
                           std::size_t n) {
                         if (cancel_.stop_requested()) return;  // skip
                         fn(eng, first, n);
                       });
}

void FaultSimulator::detect_plan(const Vector3* scan_in, const Sequence& seq,
                                 const sim::NodeTrace* trace,
                                 std::span<const FaultClassId> list,
                                 bool observe_scan_out,
                                 std::atomic<bool>* all_ok,
                                 std::span<std::uint64_t> det) {
  group_chunks(det.size(), [&](BatchEngine& eng, std::size_t first,
                               std::size_t n) {
    if (all_ok != nullptr && !all_ok->load(std::memory_order_relaxed)) {
      return;
    }
    eng.detect_groups(scan_in, seq, trace, list, first, n, observe_scan_out,
                      /*early_exit=*/true, all_ok, &cancel_,
                      det.subspan(first, n));
    if (all_ok == nullptr) return;
    // Each chunk checks its lanes so later chunks still exit early.
    for (std::size_t g = first; g < first + n; ++g) {
      if (det[g] != group_slot_mask(group_of(list, g).size())) {
        all_ok->store(false, std::memory_order_relaxed);
      }
    }
  });
  // detects_all: a cancelled plan (chunks skipped or cut) reads
  // conservatively false.
  if (all_ok != nullptr && cancel_.stop_requested()) {
    all_ok->store(false, std::memory_order_relaxed);
  }
}

FaultSet FaultSimulator::detect(const char* query, const Vector3* scan_in,
                                const Sequence& seq,
                                const FaultSet* targets) {
  check_test(scan_in, seq);
  const QueryScope scope(query);
  const std::vector<FaultClassId> list = collect(targets);
  std::vector<std::uint64_t> det(num_groups(list.size()), 0);
  const auto trace = build_trace(scan_in, seq);
  detect_plan(scan_in, seq, trace.get(), list,
              /*observe_scan_out=*/scan_in != nullptr, /*all_ok=*/nullptr,
              det);
  FaultSet detected(num_classes());
  reduce_masks(list, det, detected);
  return detected;
}

FaultSet FaultSimulator::detect_no_scan(const Sequence& seq,
                                        const FaultSet* targets) {
  return detect("detect_no_scan", nullptr, seq, targets);
}

FaultSet FaultSimulator::detect_scan_test(const Vector3& scan_in,
                                          const Sequence& seq,
                                          const FaultSet* targets) {
  return detect("detect_scan_test", &scan_in, seq, targets);
}

FaultSimulator::DetectionTimes FaultSimulator::detection_times(
    const Vector3& scan_in, const Sequence& seq, const FaultSet& targets) {
  check_test(&scan_in, seq);
  const QueryScope scope("detection_times");
  DetectionTimes times;
  times.targets = collect(&targets);
  times.first_po.assign(times.targets.size(), -1);
  times.state_diff.assign(times.targets.size(), util::Bitset(seq.length()));
  const std::span<std::int64_t> first_po(times.first_po);
  const std::span<util::Bitset> state_diff(times.state_diff);
  const std::size_t nt = times.targets.size();
  const auto trace = build_trace(&scan_in, seq);
  group_chunks(num_groups(nt), [&](BatchEngine& eng, std::size_t first,
                                   std::size_t n) {
    const std::size_t base = first * kGroupSize;
    const std::size_t cnt = std::min(n * kGroupSize, nt - base);
    eng.times_groups(scan_in, seq, trace.get(), times.targets, first, n,
                     first_po.subspan(base, cnt),
                     state_diff.subspan(base, cnt), &cancel_);
  });
  return times;
}

FaultSimulator::PrefixDetection FaultSimulator::prefix_detection(
    const Vector3& scan_in, const Sequence& seq, const FaultSet& targets) {
  check_test(&scan_in, seq);
  const QueryScope scope("prefix_detection");
  PrefixDetection out;
  out.targets = collect(&targets);
  out.first_po.assign(out.targets.size(), -1);
  out.detected = util::Bitset(num_classes());
  const std::span<std::int64_t> first_po(out.first_po);
  const std::size_t nt = out.targets.size();
  std::vector<std::uint64_t> det(num_groups(nt), 0);
  const auto trace = build_trace(&scan_in, seq);
  group_chunks(det.size(), [&](BatchEngine& eng, std::size_t first,
                               std::size_t n) {
    const std::size_t base = first * kGroupSize;
    eng.prefix_groups(scan_in, seq, trace.get(), out.targets, first, n,
                      first_po.subspan(base,
                                       std::min(n * kGroupSize, nt - base)),
                      &cancel_,
                      std::span<std::uint64_t>(det).subspan(first, n));
  });
  reduce_masks(out.targets, det, out.detected);
  return out;
}

bool FaultSimulator::detects_all(const Vector3& scan_in, const Sequence& seq,
                                 const FaultSet& required) {
  check_test(&scan_in, seq);
  const QueryScope scope("detects_all");
  const std::vector<FaultClassId> list = collect(&required);
  // Cooperative early exit: the first chunk that misses a fault flips
  // the flag; pending chunks are skipped and in-flight passes abort at
  // their next frame boundary.  The answer never depends on the races —
  // the flag only ever moves true -> false, and it moves iff some group
  // genuinely fails (or the query is cancelled).
  std::atomic<bool> all_ok{true};
  std::vector<std::uint64_t> det(num_groups(list.size()), 0);
  const auto trace = build_trace(&scan_in, seq);
  detect_plan(&scan_in, seq, trace.get(), list, /*observe_scan_out=*/true,
              &all_ok, det);
  return all_ok.load(std::memory_order_relaxed);
}

std::vector<bool> FaultSimulator::detects_all_batch(
    std::span<const Trial> trials) {
  for (const Trial& t : trials) {
    assert(t.scan_in != nullptr && t.seq != nullptr && t.required != nullptr);
    check_test(t.scan_in, *t.seq);
  }
  std::vector<bool> out(trials.size(), true);
  // Lane j = one (trial, fault group) pair; a trial without groups
  // passes trivially, as detects_all does on an empty required set.
  struct Lane {
    std::size_t trial;
    std::size_t group;
  };
  std::vector<std::vector<FaultClassId>> lists(trials.size());
  std::vector<Lane> lanes;
  for (std::size_t k = 0; k < trials.size(); ++k) {
    lists[k] = collect(trials[k].required);
    for (std::size_t g = 0; g < num_groups(lists[k].size()); ++g) {
      lanes.push_back({k, g});
    }
  }
  const sim::SimdConfig cfg = simd_config();
  if (cfg.lanes() <= 1 || lanes.size() <= 1 ||
      faults_->model().frame_gated()) {
    for (std::size_t k = 0; k < trials.size(); ++k) {
      out[k] = detects_all(*trials[k].scan_in, *trials[k].seq,
                           *trials[k].required);
    }
    return out;
  }
  const QueryScope scope("detects_all_batch");
  // Length-sorted packing keeps long trials from stretching the passes
  // of short ones; stable, so the plan is a function of the trials.
  std::stable_sort(lanes.begin(), lanes.end(),
                   [&](const Lane& a, const Lane& b) {
                     return trials[a.trial].seq->length() <
                            trials[b.trial].seq->length();
                   });
  const auto lane_group = [&](const Lane& l) {
    return group_of(lists[l.trial], l.group);
  };
  std::vector<std::uint64_t> det(lanes.size(), 0);
  exec_.for_each_chunk(
      lanes.size(), cfg.lanes(), cfg, policy(),
      [&](BatchEngine& eng, std::size_t first, std::size_t n) {
        if (cancel_.stop_requested()) return;  // skip chunk
        std::vector<LaneJob> jobs(n);
        for (std::size_t l = 0; l < n; ++l) {
          const Lane& lane = lanes[first + l];
          const Trial& t = trials[lane.trial];
          jobs[l] = LaneJob{{t.scan_in, t.seq, nullptr}, lane_group(lane)};
        }
        eng.detect_lanes(jobs, &cancel_,
                         std::span<std::uint64_t>(det).subspan(first, n));
      });
  for (std::size_t j = 0; j < lanes.size(); ++j) {
    if (det[j] != group_slot_mask(lane_group(lanes[j]).size())) {
      out[lanes[j].trial] = false;
    }
  }
  return out;
}

std::vector<FaultSet> FaultSimulator::detect_batch(
    std::span<const BatchTest> tests, const FaultSet* targets) {
  const std::size_t num_tests = tests.size();
  std::vector<FaultSet> out;
  out.reserve(num_tests);
  if (num_tests == 0) return out;
  const bool with_scan = tests.front().scan_in != nullptr;
  for (const BatchTest& t : tests) {
    assert(t.seq != nullptr);
    if ((t.scan_in != nullptr) != with_scan) {
      throw std::invalid_argument(
          "detect_batch: batch mixes scan and no-scan tests");
    }
    check_test(t.scan_in, *t.seq);
  }
  const sim::SimdConfig cfg = simd_config();
  if (!use_batch(num_tests, cfg)) {
    for (const BatchTest& t : tests) {
      out.push_back(with_scan ? detect_scan_test(*t.scan_in, *t.seq, targets)
                              : detect_no_scan(*t.seq, targets));
    }
    return out;
  }
  const QueryScope scope("detect_batch");
  obs::set_gauge(obs::Gauge::PpsfpTestsPerPass, cfg.lanes());
  const std::vector<FaultClassId> list = collect(targets);
  const auto traces = build_traces(tests);
  std::vector<BatchTestRef> refs(num_tests);
  for (std::size_t i = 0; i < num_tests; ++i) {
    refs[i] = BatchTestRef{tests[i].scan_in, tests[i].seq,
                           traces.empty() ? nullptr : &traces[i]};
  }
  const std::size_t ng = num_groups(list.size());
  const std::size_t lanes = cfg.lanes();
  // det[g * num_tests + i] = group g's mask under test i.
  std::vector<std::uint64_t> det(ng * num_tests, 0);
  exec_.for_each_chunk(
      ng, 1, cfg, policy(),
      [&](BatchEngine& eng, std::size_t g, std::size_t /*n*/) {
        const std::span<const FaultClassId> group = group_of(list, g);
        for (std::size_t c = 0; c < num_tests; c += lanes) {
          if (cancel_.stop_requested()) return;  // skip rest of group
          const std::size_t n = std::min(lanes, num_tests - c);
          eng.detect_batch(
              std::span<const BatchTestRef>(refs).subspan(c, n), group,
              /*observe_scan_out=*/with_scan,
              std::span<std::uint64_t>(det).subspan(g * num_tests + c, n));
        }
      });
  std::vector<std::uint64_t> gm(ng);
  for (std::size_t i = 0; i < num_tests; ++i) {
    for (std::size_t g = 0; g < ng; ++g) gm[g] = det[g * num_tests + i];
    FaultSet s(num_classes());
    reduce_masks(list, gm, s);
    out.push_back(std::move(s));
  }
  return out;
}

FaultSimulator::Session::Session(FaultSimulator& parent,
                                 const FaultSet& targets)
    : parent_(&parent),
      targets_(parent.collect(&targets)),
      detected_(parent.num_classes()) {
  num_groups_ = fault::num_groups(targets_.size());
  group_remaining_.resize(num_groups_);
  for (std::size_t g = 0; g < num_groups_; ++g) {
    group_remaining_[g] =
        static_cast<std::uint32_t>(group_of(targets_, g).size());
  }
  tdf_ = parent_->faults_->model().frame_gated();
  if (tdf_) {
    // Frame-gated: effects never persist, so only the fault-free machine
    // is tracked.  The last frame starts all-X: the first step has no
    // launch frame, activates nothing and starts from the all-X state.
    free_sim_.emplace(*parent_->circuit_);
    free_frame_.assign(parent_->circuit_->num_nodes(), sim::V3::X);
    group_sites_.resize(num_groups_);
    for (std::size_t g = 0; g < num_groups_; ++g) {
      group_sites_[g].build(*parent_->faults_, group_of(targets_, g));
    }
    return;
  }
  // Every group starts in the state its chunk lane is built with (all
  // X, FF stem injections applied); store it as the group's saved state.
  ff_values_.resize(num_groups_ * parent_->circuit_->num_flip_flops());
  prepare_chunks();
  store_chunks();
}

BatchEngine& FaultSimulator::Session::prepare_chunks() {
  const sim::SimdConfig cfg = parent_->simd_config();
  BatchEngine& eng = parent_->exec_.serial_engine(cfg);
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  if (chunk_cfg_ != cfg) {
    // The first build leaves every lane in the reset state, which the
    // constructor stores as its group's saved state; a rebuild for a new
    // lane width gathers the saved state below.
    store_chunks();
    resident_ = !chunk_cfg_.has_value();
    chunks_.clear();
    std::vector<std::uint32_t> groups;
    for (std::uint32_t g = 0; g < num_groups_; ++g) {
      groups.push_back(g);
      if (groups.size() == eng.lanes() || g + 1 == num_groups_) {
        chunks_.push_back(eng.make_session_chunk(targets_, groups));
        groups.clear();
      }
    }
    chunk_cfg_ = cfg;
    det_.assign(eng.lanes(), 0);
  }
  if (!resident_) {
    // Gather: each chunk lane takes its group's saved state.
    const std::span<const sim::PackedV3> saved(ff_values_);
    const std::size_t stride = eng.lanes() * nff;
    for (std::size_t c = 0; c < chunks_.size(); ++c) {
      chunks_[c]->load(saved.subspan(
          c * stride, std::min(stride, saved.size() - c * stride)));
    }
    resident_ = true;
  }
  return eng;
}

void FaultSimulator::Session::store_chunks() const {
  if (!resident_) return;
  const std::size_t lanes = chunk_cfg_->lanes();
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    chunks_[c]->store(std::span(ff_values_).subspan(c * lanes * nff),
                      live_lanes(c * lanes, lanes));
  }
}

std::uint64_t FaultSimulator::Session::live_lanes(std::size_t first,
                                                  std::size_t lanes) const {
  std::uint64_t live = 0;
  for (std::size_t l = 0; l < lanes && first + l < num_groups_; ++l) {
    if (group_remaining_[first + l] != 0) live |= 1ULL << l;
  }
  return live;
}

std::size_t FaultSimulator::Session::step(const sim::Vector3& pi) {
  parent_->check_pi(pi);
  if (tdf_) return step_tdf(pi);
  BatchEngine& eng = prepare_chunks();
  const std::size_t lanes = eng.lanes();
  const std::size_t nff = parent_->circuit_->num_flip_flops();
  std::size_t newly = 0;
  std::size_t frames = 0;
  std::size_t carried = 0;
  for (std::size_t c = 0; c < chunks_.size(); ++c) {
    const std::size_t first = c * lanes;
    const std::uint64_t live = live_lanes(first, lanes);
    if (live == 0) continue;  // every group of the chunk fully detected
    const std::size_t n = std::min(lanes, num_groups_ - first);
    eng.session_frame(*chunks_[c], pi, std::span(det_).first(n));
    ++frames;
    std::uint64_t frozen = 0;
    for (std::size_t l = 0; l < n; ++l) {
      if ((live >> l & 1) == 0) continue;  // frozen lane
      ++carried;
      newly += credit(first + l, det_[l]);
      if (group_remaining_[first + l] == 0) frozen |= 1ULL << l;
    }
    // A fully detected group's state freezes at this latch.
    if (frozen != 0) {
      chunks_[c]->store(std::span(ff_values_).subspan(first * nff), frozen);
    }
  }
  obs::add(obs::Counter::SessionFrames, frames);
  obs::add(obs::Counter::SessionLanes, carried);
  return newly;
}

std::size_t FaultSimulator::Session::credit(std::size_t g,
                                            std::uint64_t det) {
  std::size_t newly = 0;
  for_each_slot(det, [&](std::size_t j) {
    const FaultClassId id = targets_[g * kGroupSize + j];
    if (!detected_.test(id)) {
      detected_.set(id);
      --group_remaining_[g];
      ++newly;
    }
  });
  return newly;
}

std::size_t FaultSimulator::Session::step_tdf(const sim::Vector3& pi) {
  // Fault-free frame: evaluate once from the state the last frame
  // latched and record every node's value.
  sim::PackedSeqSim& sim = *free_sim_;
  sim.load_state_after(free_frame_, nullptr);
  sim.apply_frame(pi, nullptr);
  free_next_.resize(free_frame_.size());
  for (netlist::NodeId id = 0; id < free_next_.size(); ++id) {
    free_next_[id] = sim::slot(sim.value(id), 0);
  }

  // The groups that launch a transition and still have undetected
  // faults, in group order.
  jobs_.clear();
  for (std::size_t g = 0; g < num_groups_; ++g) {
    if (group_remaining_[g] == 0) continue;
    const std::uint64_t act =
        group_sites_[g].activation(free_frame_, free_next_);
    if (act == 0) continue;
    obs::add(obs::Counter::TdfActivations,
             static_cast<std::uint64_t>(std::popcount(act)));
    jobs_.push_back(TdfLaunchJob{&group_sites_[g], act});
  }

  // Launch them one-frame from the fault-free state, lanes() groups per
  // frame; effects do not persist, so the latched-effect fitness signal
  // is recomputed per step from this frame's captures alone.
  std::size_t newly = 0;
  tdf_latched_ = 0;
  if (!jobs_.empty()) {
    BatchEngine& eng = parent_->exec_.serial_engine(parent_->simd_config());
    job_det_.resize(jobs_.size());
    for (std::size_t c = 0; c < jobs_.size(); c += eng.lanes()) {
      const std::size_t n = std::min(eng.lanes(), jobs_.size() - c);
      tdf_latched_ += eng.tdf_session_frame(
          free_frame_, pi, std::span<const TdfLaunchJob>(jobs_).subspan(c, n),
          std::span<std::uint64_t>(job_det_).subspan(c, n));
    }
    obs::add(obs::Counter::SessionFrames,
             (jobs_.size() + eng.lanes() - 1) / eng.lanes());
    obs::add(obs::Counter::SessionLanes, jobs_.size());
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      const auto g =
          static_cast<std::size_t>(jobs_[k].sites - group_sites_.data());
      newly += credit(g, job_det_[k]);
    }
  }
  free_frame_.swap(free_next_);
  return newly;
}

std::size_t FaultSimulator::Session::latched_effects() const {
  if (tdf_) return tdf_latched_;
  store_chunks();
  std::size_t effects = 0;
  for (const sim::PackedV3& v : ff_values_) {
    effects += static_cast<std::size_t>(
        std::popcount(sim::wide_detections(v)));
  }
  return effects;
}

FaultSimulator::Session::Snapshot FaultSimulator::Session::snapshot() const {
  store_chunks();
  return Snapshot{ff_values_, detected_, group_remaining_, free_frame_,
                  tdf_latched_};
}

void FaultSimulator::Session::restore(const Snapshot& snap) {
  ff_values_ = snap.ff_values;
  detected_ = snap.detected;
  group_remaining_ = snap.group_remaining;
  free_frame_ = snap.free_frame;
  tdf_latched_ = snap.tdf_latched;
  resident_ = false;  // the next step gathers the restored state
}

}  // namespace scanc::fault
