// Batch simulation engine: the fault-parallel, pattern-parallel (PPSFP)
// and lane-batched passes every FaultSimulator query runs.
//
// A BatchEngine owns one SeqSim<W> (sim/seq_sim.hpp) on a word W of one
// or more 64-bit lanes — std::uint64_t (the one-lane engine), portable
// WideWord<NW>, Avx2Word, or Avx512Word — behind a virtual interface, so
// the dispatch on lane width/ISA happens once per engine construction,
// never on the per-gate path.  Every lane's results are bit-identical
// to the one-lane engine's pass over that lane's work alone — lanes
// never interact.  The pass shapes:
//
//   detect_groups / times_groups / prefix_groups  (fault-parallel)
//     one scan test broadcast to every lane, lanes() consecutive fault
//     groups with per-lane injection masks (stuck-at) or per-lane
//     transition launches (TdfLaunch<W>), run on the shared frame loop
//     (fault/frame_loop.hpp) with the detection, detection-time or
//     prefix observer.  Lane l's records are those of the one-lane pass
//     over group first_group + l; on the one-lane engine this is the
//     per-group pass itself.
//
//   detect_batch  (PPSFP)
//     lanes() scan tests in the bit-lanes of one pass, one fault group
//     replicated across lanes (splat injection masks, per-lane
//     stimulus; under transition faults per-lane launches from each
//     test's trace).  Lane l's result is bit-identical to
//     detect_groups over that group on test l alone.
//
//   detect_lanes  (lane-batched, stuck-at)
//     the PPSFP loop with a (test, group) pair per lane: per-lane
//     scan-in, stimulus and injection masks, each lane observed up to
//     its own last frame.  Lane l's mask is bit-identical to
//     detect_groups of its group on its test.
//
//   session_frame  (stuck-at Session frame)
//     one frame of an incremental stuck-at Session over a SessionChunk:
//     lane l carries one fault group's injections (compiled once when
//     the chunk is built) and its FF state, resident in the word between
//     frames.  Lane l's detections and latch are bit-identical to a
//     one-lane frame of that group from the same state.
//
//   tdf_session_frame  (transition Session frame)
//     one frame of an incremental transition-fault Session, lane l
//     carrying one launching fault group.
//
// Engines are created per worker thread (GroupExecutor, one one-lane
// engine and one for the current config; at 64-bit lanes they are the
// same object) and reused across passes; construction is cheap (two
// node-indexed arrays).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "fault/fault_list.hpp"
#include "fault/frame_common.hpp"
#include "netlist/circuit.hpp"
#include "sim/node_trace.hpp"
#include "sim/packed.hpp"
#include "sim/sequence.hpp"
#include "sim/simd.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// One scan test of a pattern batch.  `scan_in` (nullptr = no scan-in,
/// all-X start) is masked for partial scan by the engine.  `trace` is
/// the test's fault-free trace, exactly seq->length() frames long,
/// required under frame-gated fault models (it is the activation
/// oracle) and ignored otherwise.
struct BatchTestRef {
  const sim::Vector3* scan_in = nullptr;
  const sim::Sequence* seq = nullptr;
  const sim::NodeTrace* trace = nullptr;
};

/// One lane of a lane-batched detection pass: a scan test and the fault
/// group (<= 63 classes) checked against it.
struct LaneJob {
  BatchTestRef test;
  std::span<const FaultClassId> group;
};

/// One lane of a transition-fault Session frame: a fault group's
/// activation sites and the slots launched this frame.
struct TdfLaunchJob {
  const TdfSites* sites = nullptr;
  std::uint64_t act = 0;
};

/// A stuck-at Session's fault groups on one engine word: lane l carries
/// one group's stuck-line injections (compiled into one map when the
/// chunk is built) and that group's FF state, which stays in the word
/// between frames.  Built by BatchEngine::make_session_chunk and stepped
/// by session_frame on an engine of the same SimdConfig; the FF state
/// moves between the lanes and one-lane words without an engine, in the
/// Session snapshot layout: lane l's state at ff[l * F] .. ff[l * F +
/// F - 1] in flip_flops() order, F = the circuit's flip-flop count.
class SessionChunk {
 public:
  virtual ~SessionChunk() = default;

  /// Loads the state of lanes 0 .. ff.size() / F - 1 from `ff`; later
  /// lanes are set to X.
  virtual void load(std::span<const sim::PackedV3> ff) = 0;

  /// Stores the state of every lane l whose bit l is set in `lanes` into
  /// `ff` (which must reach that lane's slice).
  virtual void store(std::span<sim::PackedV3> ff,
                     std::uint64_t lanes) const = 0;
};

class BatchEngine {
 public:
  virtual ~BatchEngine() = default;

  /// Number of 64-bit lanes per pass (tests per PPSFP pass, groups per
  /// wide fault-parallel pass).
  [[nodiscard]] virtual std::size_t lanes() const noexcept = 0;

  /// PPSFP detection: simulates `group` (<= 63 classes) against
  /// tests[l] in lane l.  det[l] receives the detection mask of test l
  /// (bit j+1 = group[j]), bit-identical to detect_groups over `group`
  /// on that test alone.  tests.size() <= lanes(); shorter/empty tests simply
  /// stop being observed (ragged batches are fine).
  virtual void detect_batch(std::span<const BatchTestRef> tests,
                            std::span<const FaultClassId> group,
                            bool observe_scan_out,
                            std::span<std::uint64_t> det) = 0;

  /// Lane-batched detection: jobs[l] (<= lanes() jobs) runs in lane l.
  /// det[l] receives its group's detection mask, bit-identical to
  /// detect_groups over its group on its test (observe_scan_out =
  /// true, early_exit = true).  `cancel` is polled per frame; a raised
  /// token leaves partial masks.  Stuck-at models only: transition
  /// trials run one by one (FaultSimulator::detects_all_batch).
  virtual void detect_lanes(std::span<const LaneJob> jobs,
                            const util::CancelToken* cancel,
                            std::span<std::uint64_t> det) = 0;

  /// Fault-parallel detection: `ngroups` (<= lanes()) consecutive
  /// groups of `list` starting at group index `first_group`, one test
  /// broadcast to every lane.  det[l] receives group first_group + l's
  /// mask (bit j+1 = its member j detected).  `scan_in` (nullptr = the
  /// all-X start, no scan) is masked for partial scan internally.
  /// `trace`, in every fault-parallel pass, is the fault-free trace of
  /// (masked scan_in, seq), exactly seq.length() frames long: required
  /// under a frame-gated fault model, where it is the activation oracle,
  /// and ignored otherwise.  With `early_exit` the pass stops once every
  /// fault of every lane is PO-detected.  `keep_going` and `cancel`, when
  /// given, are polled every frame: once keep_going reads false or the
  /// token is raised the pass aborts with partial masks, which callers
  /// must treat as incomplete.
  virtual void detect_groups(const sim::Vector3* scan_in,
                             const sim::Sequence& seq,
                             const sim::NodeTrace* trace,
                             std::span<const FaultClassId> list,
                             std::size_t first_group, std::size_t ngroups,
                             bool observe_scan_out, bool early_exit,
                             const std::atomic<bool>* keep_going,
                             const util::CancelToken* cancel,
                             std::span<std::uint64_t> det) = 0;

  /// Fault-parallel detection times over the same lane layout as
  /// detect_groups.  first_po / state_diff hold the records of the
  /// ngroups groups' targets (list positions from first_group *
  /// kGroupSize on): first_po (init to -1 by the caller) receives each
  /// fault's earliest PO detection time, state_diff (each pre-sized to
  /// seq.length()) the time units whose scan-out would detect it.  A
  /// raised `cancel` aborts at the next frame, leaving partial records.
  virtual void times_groups(const sim::Vector3& scan_in,
                            const sim::Sequence& seq,
                            const sim::NodeTrace* trace,
                            std::span<const FaultClassId> list,
                            std::size_t first_group, std::size_t ngroups,
                            std::span<std::int64_t> first_po,
                            std::span<util::Bitset> state_diff,
                            const util::CancelToken* cancel) = 0;

  /// Fault-parallel prefix coverage: first_po as in times_groups, det[l]
  /// = group first_group + l's detection mask over the complete test,
  /// final scan-out included.  Stops early once every fault of every
  /// lane is PO-detected; a raised `cancel` aborts with partial masks.
  virtual void prefix_groups(const sim::Vector3& scan_in,
                             const sim::Sequence& seq,
                             const sim::NodeTrace* trace,
                             std::span<const FaultClassId> list,
                             std::size_t first_group, std::size_t ngroups,
                             std::span<std::int64_t> first_po,
                             const util::CancelToken* cancel,
                             std::span<std::uint64_t> det) = 0;

  /// A stuck-at Session chunk whose lane l carries group groups[l] of
  /// `list` (1..lanes() groups; group g = the <= kGroupSize classes from
  /// g * kGroupSize on).  Every lane starts in the state a reset
  /// simulator holds: all X, with its group's FF stem injections.
  [[nodiscard]] virtual std::unique_ptr<SessionChunk> make_session_chunk(
      std::span<const FaultClassId> list,
      std::span<const std::uint32_t> groups) = 0;

  /// One frame of a stuck-at Session: every lane of `chunk` (built by an
  /// engine of this engine's SimdConfig) applies `pi` from its resident
  /// FF state under its group's injections, with the constants and
  /// their stem injections rewritten first, and latches the next state
  /// in place.  det[l] receives lane l's PO detection mask (det.size()
  /// <= lanes(); later lanes are not reported).
  virtual void session_frame(SessionChunk& chunk, const sim::Vector3& pi,
                             std::span<std::uint64_t> det) = 0;

  /// One frame of a transition-fault Session: every lane starts from the
  /// fault-free state latched after `prev` (NodeId-indexed node values
  /// of the previous fault-free frame; all-X before the first) and
  /// applies `pi`, lane l with jobs[l]'s launched sites stuck at their
  /// stale values (jobs.size() <= lanes()).  det[l] receives lane l's PO
  /// detection mask; returns the fault effects latched over all lanes
  /// (Session::latched_effects).
  virtual std::size_t tdf_session_frame(std::span<const sim::V3> prev,
                                        const sim::Vector3& pi,
                                        std::span<const TdfLaunchJob> jobs,
                                        std::span<std::uint64_t> det) = 0;
};

/// Builds the engine `cfg` resolves to (sim/simd.hpp): an intrinsic
/// word when that TU was compiled and cfg.isa selects it, else the
/// portable wide word at cfg.bits, or the one-lane word at 64 bits.
[[nodiscard]] std::unique_ptr<BatchEngine> make_batch_engine(
    const netlist::Circuit& circuit, const FaultList& faults,
    util::Bitset scan_mask, const sim::SimdConfig& cfg);

}  // namespace scanc::fault
