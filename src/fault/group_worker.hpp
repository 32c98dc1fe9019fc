// Worker-local parallel-fault simulation engine.
//
// A GroupWorker owns everything one pass over a group of <= 63 collapsed
// fault classes mutates — the one-lane SeqSim (PackedSeqSim), the
// injection map, the activation-site scratch and, on demand, a wide
// BatchEngine — and borrows only const
// circuit/fault data.  Any number of workers can therefore simulate
// disjoint fault groups concurrently over the same circuit; the
// execution layer (fault/group_exec.hpp) hands each executing thread its
// own worker.
//
// The four public passes map one-to-one onto the FaultSimulator queries
// built on top of them:
//   run_detect      -> detect_no_scan / detect_scan_test / detects_all
//   run_times       -> detection_times
//   run_prefix      -> prefix_detection
//   run_consistency -> consistent_faults
// Each is a thin dispatcher over one frame loop (fault/frame_loop.hpp,
// shared with the wide fault-parallel pass) templated on three policies
// (docs/execution.md, "Simulation kernels"):
//   Evaluator   the full CSR schedule on SeqSim;
//   Activation  always active (stuck-at: injections built once, state
//               persists) or the transition launch mask (injections per
//               frame, state reloaded from the fault-free trace, latch
//               only where the observer needs it);
//   Observer    what a frame records: detection mask with early exit,
//               detection times, prefix coverage, or response mismatch.
// Each pass is a pure function of (const inputs, group): it fully
// re-initialises the owned state, so results never depend on what the
// worker ran before.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "fault/batch_engine.hpp"
#include "fault/fault_list.hpp"
#include "fault/frame_common.hpp"
#include "netlist/circuit.hpp"
#include "sim/node_trace.hpp"
#include "sim/seq_sim.hpp"
#include "sim/simd.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// Fault slots occupied by a group of size n: bits 1..n (slot 0 is the
/// fault-free reference machine).
[[nodiscard]] constexpr std::uint64_t group_slot_mask(std::size_t n) noexcept {
  return n >= 63 ? ~1ULL : ((1ULL << (n + 1)) - 2);
}

/// Registers `group`'s stuck-line injections into `out` (slot j+1 =
/// group[j], the same group in every lane).  Shared by GroupWorker
/// passes, the incremental Session (which caches one map per group) and
/// the PPSFP batch passes.
template <class W>
void build_group_injections(const FaultList& faults,
                            std::span<const FaultClassId> group,
                            sim::InjectionMap<W>& out) {
  out.clear();
  for (std::size_t j = 0; j < group.size(); ++j) {
    const Fault& f = faults.representative(group[j]);
    out.add(f.node, f.pin, f.value, sim::splat<W>(1ULL << (j + 1)));
  }
}

class GroupWorker {
 public:
  /// Borrows `circuit` and `faults`; copies `scan_mask` so the worker
  /// stays valid if the owning simulator moves.
  GroupWorker(const netlist::Circuit& circuit, const FaultList& faults,
              util::Bitset scan_mask);

  /// Simulates one group through the whole test and returns its
  /// detection mask (bit j+1 = group[j] detected; bit 0 unused).
  /// `scan_in == nullptr` runs from the all-X state (no scan).  With
  /// `early_exit`, the pass stops once every group fault is PO-detected.
  /// `keep_going`, when given, is polled every frame: once it reads
  /// false the pass aborts and returns a partial mask (cooperative
  /// cancellation for detects_all under parallel execution).  `cancel`,
  /// when given, is likewise polled every frame; a raised token aborts
  /// the pass with a partial mask — callers that observe
  /// cancel->stop_requested() must treat the result as incomplete.
  /// `trace`, in every pass, is the fault-free trace of (masked scan_in,
  /// seq): required under a frame-gated fault model, where it is the
  /// activation oracle, and ignored otherwise.
  std::uint64_t run_detect(const sim::Vector3* scan_in,
                           const sim::Sequence& seq,
                           std::span<const FaultClassId> group,
                           bool observe_scan_out, bool early_exit,
                           const std::atomic<bool>* keep_going = nullptr,
                           const util::CancelToken* cancel = nullptr,
                           const sim::NodeTrace* trace = nullptr);

  /// Full detection-time recording for one group.  `first_po[j]` (init
  /// to -1 by the caller) receives the earliest PO detection time of
  /// group[j]; `state_diff[j]` (pre-sized to seq.length()) collects the
  /// time units whose scan-out would detect it.  Spans are group-local
  /// (index j, not class id).  A raised `cancel` aborts at the next
  /// frame boundary, leaving partial records.
  void run_times(const sim::Vector3& scan_in, const sim::Sequence& seq,
                 std::span<const FaultClassId> group,
                 std::span<std::int64_t> first_po,
                 std::span<util::Bitset> state_diff,
                 const util::CancelToken* cancel = nullptr,
                 const sim::NodeTrace* trace = nullptr);

  /// Lighter prefix-coverage pass: records first PO detection times into
  /// `first_po` (group-local, init to -1) and returns the detection mask
  /// of the complete test including the final scan-out.  Exits early
  /// when every group fault is PO-detected.  A raised `cancel` aborts at
  /// the next frame boundary with a partial mask.
  std::uint64_t run_prefix(const sim::Vector3& scan_in,
                           const sim::Sequence& seq,
                           std::span<const FaultClassId> group,
                           std::span<std::int64_t> first_po,
                           const util::CancelToken* cancel = nullptr,
                           const sim::NodeTrace* trace = nullptr);

  /// Response-comparison pass for diagnosis: returns the mask of group
  /// faults whose predicted response *mismatches* the observation
  /// (binary-vs-binary differences only).  A raised `cancel` aborts at
  /// the next frame boundary; the partial mask under-reports mismatches,
  /// which callers must treat as "conservatively consistent".
  std::uint64_t run_consistency(const sim::Vector3& scan_in,
                                const sim::Sequence& seq,
                                std::span<const sim::Vector3> observed_pos,
                                const sim::Vector3& observed_scan_out,
                                std::span<const FaultClassId> group,
                                const util::CancelToken* cancel = nullptr,
                                const sim::NodeTrace* trace = nullptr);

  /// Worker-local wide batch engine for `cfg` (PPSFP and wide
  /// fault-parallel passes), created on first use and rebuilt when the
  /// resolved config changes.  Callers only pass configs with
  /// cfg.lanes() > 1 — single-lane work stays on the one-lane passes.
  [[nodiscard]] BatchEngine& batch_engine(const sim::SimdConfig& cfg);

  // --- incremental primitives (FaultSimulator::Session) ---------------

  [[nodiscard]] sim::PackedSeqSim& sim() noexcept { return sim_; }
  [[nodiscard]] sim::PackedInjectionMap& injections() noexcept {
    return injections_;
  }

 private:
  /// The one frame loop's dispatcher: picks the Activation policy from
  /// the fault model, then runs `obs` (group_worker.cpp) over the test.
  /// `trace` is the query's fault-free trace: the transition model's
  /// activation oracle, nullptr under stuck-at.
  template <class Obs>
  void run(const sim::Vector3* scan_in, const sim::Sequence& seq,
           std::span<const FaultClassId> group, const sim::NodeTrace* trace,
           Obs& obs);

  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  sim::PackedSeqSim sim_;
  sim::PackedInjectionMap injections_;
  TdfSites tdf_sites_;
  std::unique_ptr<BatchEngine> batch_engine_;
  sim::SimdConfig batch_cfg_;
};

}  // namespace scanc::fault
