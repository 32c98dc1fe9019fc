// Wide batch simulation engine: pattern-parallel (PPSFP) and wide
// fault-parallel passes.
//
// A BatchEngine owns one SeqSim<W> (sim/seq_sim.hpp — the simulator the
// one-lane GroupWorker passes run, instantiated on a multi-lane word W:
// portable WideWord<NW>, Avx2Word, or Avx512Word) behind a virtual
// interface, so the dispatch on lane width/ISA happens once per engine
// construction, never on the per-gate path.  Two pass shapes:
//
//   detect_batch / times_batch  (PPSFP)
//     lanes() scan tests in the bit-lanes of one pass, one fault group
//     replicated across lanes (splat injection masks, per-lane
//     stimulus).  Lane l's result is bit-identical to the corresponding
//     64-bit per-test GroupWorker pass — lanes never interact.
//
//   detect_groups  (wide fault-parallel)
//     one scan test broadcast to every lane, lanes() consecutive fault
//     groups with per-lane injection masks, run on GroupWorker's frame
//     loop (fault/frame_loop.hpp).  Lane l's mask is bit-identical to
//     run_detect over group first_group + l.
//
// Engines are created per worker thread (GroupWorker::batch_engine) and
// reused across passes; construction is cheap (two node-indexed arrays).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "fault/fault_list.hpp"
#include "netlist/circuit.hpp"
#include "sim/node_trace.hpp"
#include "sim/sequence.hpp"
#include "sim/simd.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// One scan test of a pattern batch.  `scan_in` (nullptr = no scan-in,
/// all-X start) is masked for partial scan by the engine.  `trace` is
/// the test's fault-free trace, required under frame-gated fault models
/// (it is the activation oracle) and ignored otherwise.
struct BatchTestRef {
  const sim::Vector3* scan_in = nullptr;
  const sim::Sequence* seq = nullptr;
  const sim::NodeTrace* trace = nullptr;
};

class BatchEngine {
 public:
  virtual ~BatchEngine() = default;

  /// Number of 64-bit lanes per pass (tests per PPSFP pass, groups per
  /// wide fault-parallel pass).
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// PPSFP detection: simulates `group` (<= 63 classes) against
  /// tests[l] in lane l.  det[l] receives the detection mask of test l
  /// (bit j+1 = group[j]), bit-identical to GroupWorker::run_detect on
  /// that test.  tests.size() <= lanes(); shorter/empty tests simply
  /// stop being observed (ragged batches are fine).
  virtual void detect_batch(std::span<const BatchTestRef> tests,
                            std::span<const FaultClassId> group,
                            bool observe_scan_out,
                            std::span<std::uint64_t> det) = 0;

  /// PPSFP detection-time recording: strided lane-major records — test
  /// l, group member j lands at index l * stride + j of both spans
  /// (stride >= group.size() lets callers aim the engine at a slice of
  /// a per-query flat buffer).  first_po must be initialised to -1 and
  /// state_diff pre-sized to each test's sequence length, exactly as
  /// GroupWorker::run_times expects.
  virtual void times_batch(std::span<const BatchTestRef> tests,
                           std::span<const FaultClassId> group,
                           std::size_t stride,
                           std::span<std::int64_t> first_po,
                           std::span<util::Bitset> state_diff) = 0;

  /// Wide fault-parallel detection: `ngroups` (<= lanes()) consecutive
  /// groups of `list` starting at group index `first_group`, one test
  /// broadcast to every lane.  det[l] receives group first_group + l's
  /// mask.  `scan_in` is masked internally (mirrors run_detect).
  /// keep_going / cancel are polled per frame with the same partial-mask
  /// contract as GroupWorker::run_detect.  Stuck-at models only.
  virtual void detect_groups(const sim::Vector3* scan_in,
                             const sim::Sequence& seq,
                             std::span<const FaultClassId> list,
                             std::size_t first_group, std::size_t ngroups,
                             bool observe_scan_out, bool early_exit,
                             const std::atomic<bool>* keep_going,
                             const util::CancelToken* cancel,
                             std::span<std::uint64_t> det) = 0;
};

/// Builds the engine `cfg` resolves to (sim/simd.hpp): an intrinsic
/// word when that TU was compiled and cfg.isa selects it, else the
/// portable wide word at cfg.bits.  cfg.bits must be > 64.
[[nodiscard]] std::unique_ptr<BatchEngine> make_batch_engine(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask, const sim::SimdConfig& cfg);

}  // namespace scanc::fault
