#include "fault/group_worker.hpp"

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
      injections_(circuit) {
  assert(scan_mask_.size() == circuit.num_flip_flops());
}

BatchEngine& GroupWorker::batch_engine(const sim::SimdConfig& cfg) {
  if (batch_engine_ == nullptr || !(batch_cfg_ == cfg)) {
    batch_engine_ = make_batch_engine(*circuit_, *faults_, scan_mask_, cfg);
    batch_cfg_ = cfg;
  }
  return *batch_engine_;
}

template <class Obs>
void GroupWorker::run(const Vector3* scan_in, const Sequence& seq,
                      std::span<const FaultClassId> group,
                      const sim::NodeTrace* trace, Obs& obs) {
  obs::add(obs::Counter::FullPasses);
  if (faults_->model().frame_gated()) {
    // The trace is the activation oracle, and each active frame reloads
    // its state from it (no scan-in load).
    assert(trace != nullptr && trace->length() == seq.length());
    tdf_sites_.build(*faults_, group);
    injections_.clear();
    const TdfLane lane{&tdf_sites_, trace};
    TdfLaunch<std::uint64_t> act(injections_, {&lane, 1});
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
  TimesObs<std::uint64_t> obs{{nullptr, cancel}, first_po, state_diff};
  run(&scan_in, seq, group, trace, obs);
}

std::uint64_t GroupWorker::run_prefix(const Vector3& scan_in,
                                      const Sequence& seq,
                                      std::span<const FaultClassId> group,
                                      std::span<std::int64_t> first_po,
                                      const util::CancelToken* cancel,
                                      const sim::NodeTrace* trace) {
  assert(first_po.size() == group.size());
  PrefixObs<std::uint64_t> obs{
      {nullptr, cancel}, group_slot_mask(group.size()), first_po};
  run(&scan_in, seq, group, trace, obs);
  return obs.det;
}

}  // namespace scanc::fault
