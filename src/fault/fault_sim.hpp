// Parallel-fault sequential fault simulator.
//
// Simulates 63 faulty machines plus the fault-free reference per pass
// (one simulation slot each; slot 0 is fault-free).  Faults are injected
// as stuck-line masks (sim/injection.hpp) at the representative fault of
// each collapsed class.
//
// Layering (docs/execution.md):
//   engine     fault::GroupWorker      — worker-local mutable state
//   execution  fault::for_each_group   — group partitioning + thread pool
//   call-site  FaultSimulator queries  — this file; paper-facing API
// Every query routes through the same group plan, so set_num_threads(n)
// parallelises all of them while keeping results bit-identical to a
// serial run (see group_exec.hpp for the determinism argument).
//
// Kernel: every group pass evaluates the whole circuit on the
// CSR-levelized schedule.  Stuck-at detect queries with >= 2 groups pack
// lanes() groups into one wide fault-parallel pass; batch queries pack
// lanes() tests into one PPSFP pass.  Under a frame-gated fault model
// the passes read a shared fault-free trace (sim/node_trace.hpp,
// memoized across queries by sim/trace_cache.hpp) as activation oracle.
//
// Detection is conservative (standard for 3-valued simulation): a fault
// is detected at an observation point only when both the fault-free and
// the faulty values are binary and differ.  Observation points are the
// primary outputs at every time unit and, for scan tests, the scan-out
// state after the final time unit.
//
// Supported queries map one-to-one onto the operations the DAC-2001
// procedure needs:
//   - detect_no_scan      : Phase 1 Step 1 (faults detected by T0 alone)
//   - detect_scan_test    : Phase 1 Step 2 / Phase 3 (coverage of (SI,T))
//   - detection_times     : Phase 1 Step 3 (scan-out time selection from a
//                           single simulation pass)
//   - detects_all         : Phase 2 / Phase 4 coverage-preservation checks
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "fault/fault_list.hpp"
#include "fault/group_exec.hpp"
#include "netlist/circuit.hpp"
#include "sim/seq_sim.hpp"
#include "sim/simd.hpp"
#include "sim/trace_cache.hpp"
#include "util/bitset.hpp"
#include "util/cancel.hpp"

namespace scanc::fault {

/// A set of collapsed fault classes.
using FaultSet = util::Bitset;

class FaultSimulator {
 public:
  FaultSimulator(const netlist::Circuit& circuit, const FaultList& faults);

  /// Partial-scan construction: `scan_mask` selects which flip-flops (in
  /// flip_flops() order) are on the scan chain.  Scan-in values at
  /// unscanned positions are forced to X (their state is unknown at test
  /// start) and scan-out observes only scanned flip-flops.  The paper
  /// notes the procedure extends to partial scan; this is that extension.
  FaultSimulator(const netlist::Circuit& circuit, const FaultList& faults,
                 util::Bitset scan_mask);

  /// Worker threads every query fans fault groups across: 1 (default)
  /// runs serially on the calling thread, 0 means one per hardware
  /// thread.  Results are bit-identical for every setting.
  void set_num_threads(std::size_t n) noexcept { num_threads_ = n; }
  [[nodiscard]] std::size_t num_threads() const noexcept {
    return num_threads_;
  }

  /// Cooperative cancellation for every query: once `token` is raised
  /// (explicitly or by its deadline), in-flight passes abort at the
  /// next simulation-frame boundary, pending fault groups are skipped,
  /// and the query returns promptly with a *partial* result.  Callers
  /// that observe token.stop_requested() must treat results as
  /// incomplete (detects_all conservatively reports false).  The
  /// default (inert) token never cancels and costs one relaxed load
  /// per frame.
  void set_cancel(util::CancelToken token) noexcept {
    cancel_ = std::move(token);
  }
  [[nodiscard]] const util::CancelToken& cancel() const noexcept {
    return cancel_;
  }

  /// SIMD lane width for the wide passes (sim/simd.hpp): batch queries
  /// pack lanes() tests per pass (PPSFP), and stuck-at detect queries
  /// pack lanes() fault groups per pass.  Auto (default) picks
  /// the widest ISA the CPU supports; W64 disables both wide paths.
  /// Results are bit-identical across widths.
  void set_lane_width(sim::LaneWidth w) noexcept { lane_width_ = w; }
  [[nodiscard]] sim::LaneWidth lane_width() const noexcept {
    return lane_width_;
  }

  /// The (width, ISA) configuration lane_width() resolves to on this
  /// machine.
  [[nodiscard]] sim::SimdConfig simd_config() const noexcept {
    return sim::resolve_simd(lane_width_);
  }

  /// The shared fault-free trace cache (exposed for tests/diagnostics).
  [[nodiscard]] const sim::TraceCache& trace_cache() const noexcept {
    return trace_cache_;
  }

  /// The scan-chain membership mask (all-set for full scan).
  [[nodiscard]] const util::Bitset& scan_mask() const noexcept {
    return scan_mask_;
  }

  /// Number of scanned flip-flops (the N_SV that scan operations cost).
  [[nodiscard]] std::size_t num_scanned() const noexcept {
    return scan_mask_.count();
  }

  /// Number of collapsed fault classes (the size of every FaultSet).
  [[nodiscard]] std::size_t num_classes() const noexcept {
    return faults_->num_classes();
  }

  /// The simulated circuit.
  [[nodiscard]] const netlist::Circuit& circuit() const noexcept {
    return *circuit_;
  }

  /// The fault universe.
  [[nodiscard]] const FaultList& fault_list() const noexcept {
    return *faults_;
  }

  /// An all-true FaultSet over the fault classes.
  [[nodiscard]] FaultSet all_faults() const {
    FaultSet s(num_classes());
    s.fill();
    return s;
  }

  /// Faults detected by `seq` applied from the all-X (unknown) state with
  /// observation at primary outputs only — the circuit runs without scan.
  /// If `targets` is given, only those classes are simulated.
  [[nodiscard]] FaultSet detect_no_scan(const sim::Sequence& seq,
                                        const FaultSet* targets = nullptr);

  /// Faults detected by the scan test (scan_in, seq): the state is set to
  /// `scan_in`, POs are observed every time unit, and the state reached
  /// after the final time unit is observed by scan-out.
  [[nodiscard]] FaultSet detect_scan_test(const sim::Vector3& scan_in,
                                          const sim::Sequence& seq,
                                          const FaultSet* targets = nullptr);

  /// One test of a batch query.  `scan_in == nullptr` means the test
  /// runs without scan (all-X start, POs only), as detect_no_scan.
  struct BatchTest {
    const sim::Vector3* scan_in = nullptr;
    const sim::Sequence* seq = nullptr;
  };

  /// Pattern-parallel (PPSFP) batch of detect_scan_test /
  /// detect_no_scan: one detected-fault set per test, in order,
  /// bit-identical to running the per-test query on each.  The batch
  /// must be homogeneous — every test with scan-in, or every test
  /// without.  Packs simd_config().lanes() tests into the bit-lanes of
  /// one wide pass per fault group, sharing the per-group setup and
  /// every gate evaluation across the batch; falls back to the per-test
  /// query when the batch or the lane width is 1.
  [[nodiscard]] std::vector<FaultSet> detect_batch(
      std::span<const BatchTest> tests, const FaultSet* targets = nullptr);

  /// Per-fault detection-time records for the scan test (scan_in, seq).
  ///
  /// For each simulated class f:
  ///   first_po[f']   = earliest time unit at which f is detected at a PO
  ///                    (-1 if never), and
  ///   state_diff[f'] = the set of time units u such that, if scan-out
  ///                    were performed after time unit u, f would be
  ///                    detected at the scanned-out state.
  /// Because the truncated test (SI, T[0,u]) behaves identically to the
  /// full test on the first u+1 time units, these records determine the
  /// coverage of *every* prefix test without re-simulation:
  ///   (SI, T[0,u]) detects f  iff  first_po[f] <= u or u in state_diff[f].
  struct DetectionTimes {
    std::vector<FaultClassId> targets;    ///< simulated classes, in order
    std::vector<std::int64_t> first_po;   ///< per target; -1 = never
    std::vector<util::Bitset> state_diff; ///< per target; size = seq length

    /// Coverage of the prefix test ending at time unit u (see above).
    [[nodiscard]] bool detected_by_prefix(std::size_t target_index,
                                          std::size_t u) const {
      return (first_po[target_index] >= 0 &&
              first_po[target_index] <= static_cast<std::int64_t>(u)) ||
             state_diff[target_index].test(u);
    }
  };

  [[nodiscard]] DetectionTimes detection_times(const sim::Vector3& scan_in,
                                               const sim::Sequence& seq,
                                               const FaultSet& targets);

  /// Pattern-parallel (PPSFP) batch of detection_times: one record per
  /// test, in order, bit-identical to the per-test query.  Every test
  /// must have scan-in.  Same packing and fallback rules as
  /// detect_batch.
  [[nodiscard]] std::vector<DetectionTimes> times_batch(
      std::span<const BatchTest> tests, const FaultSet& targets);

  /// Lighter variant of detection_times for coverage checking: records
  /// each target's earliest PO detection time and whether the complete
  /// test (including the final scan-out) detects it, without per-frame
  /// scan-out records.  Groups whose faults are all PO-detected exit
  /// early, making this much cheaper than detection_times on passing
  /// checks.
  struct PrefixDetection {
    std::vector<FaultClassId> targets;   ///< simulated classes, in order
    std::vector<std::int64_t> first_po;  ///< per target; -1 = not at a PO
    util::Bitset detected;               ///< per *class*: test detects it

    /// True if every simulated target is detected.  `detected` is
    /// indexed by class, not by target, so this checks the targets
    /// actually simulated — extra class bits (e.g. after merging in
    /// another query's result) don't skew the answer.
    [[nodiscard]] bool all_detected() const noexcept {
      for (const FaultClassId t : targets) {
        if (!detected.test(t)) return false;
      }
      return true;
    }
  };

  [[nodiscard]] PrefixDetection prefix_detection(const sim::Vector3& scan_in,
                                                 const sim::Sequence& seq,
                                                 const FaultSet& targets);

  /// True iff the scan test (scan_in, seq) detects every class in
  /// `required`.  Exits early where possible: serially, the first
  /// failing group stops the scan; in parallel, a shared "all satisfied
  /// so far" flag cancels in-flight groups cooperatively.
  [[nodiscard]] bool detects_all(const sim::Vector3& scan_in,
                                 const sim::Sequence& seq,
                                 const FaultSet& required);

  /// Compares every target fault's predicted response under the scan
  /// test (scan_in, seq) against an observed response, returning the set
  /// of faults *consistent* with the observation.  Comparison is
  /// conservative: positions where either side is X never count as a
  /// mismatch.  `observed_pos[t]` is the observed PO vector after time
  /// unit t; `observed_scan_out` the observed scan-out state.
  /// This is the kernel of effect-cause fault diagnosis (diag/).
  /// Cancellation is conservative in the inclusive direction: groups
  /// skipped or aborted by a raised cancel token report no mismatches,
  /// so their faults stay in the consistent set (candidates are never
  /// wrongly excluded by a partial result).
  [[nodiscard]] FaultSet consistent_faults(
      const sim::Vector3& scan_in, const sim::Sequence& seq,
      std::span<const sim::Vector3> observed_pos,
      const sim::Vector3& observed_scan_out, const FaultSet& targets);

  /// Throws std::invalid_argument unless an observed response fits the
  /// scan test with sequence `seq`: one PO vector of primary_outputs()
  /// width per frame, and a scan-out vector of flip_flops() width.
  /// consistent_faults checks its arguments with it; a short response
  /// from a tester would otherwise be read out of bounds.
  void check_response(std::span<const sim::Vector3> observed_pos,
                      const sim::Vector3& observed_scan_out,
                      const sim::Sequence& seq) const;

  /// Throws std::invalid_argument unless the circuit can run the test
  /// (scan_in, seq): a scan-in vector (when given) of flip_flops()
  /// width, and one PI vector of primary_inputs() width per frame.  The
  /// simulators index both by position, so every query checks its tests
  /// with it before simulating; a short vector would be read out of
  /// bounds.
  void check_test(const sim::Vector3* scan_in,
                  const sim::Sequence& seq) const;

  /// Incremental no-scan simulation over a fixed target set: all machines
  /// start in the all-X state and advance one frame per step() with PO
  /// observation.  snapshot()/restore() allow speculative extension —
  /// the engine a simulation-based sequence generator needs.
  ///
  /// Sessions run on the parent's serial engine: step() is not
  /// parallelised and must not run concurrently with parent queries.
  class Session {
   public:
    Session(FaultSimulator& parent, const FaultSet& targets);

    /// Applies one PI vector; updates detected().  Returns the number of
    /// classes newly detected on this frame.
    std::size_t step(const sim::Vector3& pi);

    /// Classes detected at POs so far.
    [[nodiscard]] const FaultSet& detected() const noexcept {
      return detected_;
    }

    /// Number of (fault, flip-flop) pairs currently holding a latched
    /// fault effect (binary difference vs the fault-free machine) — a
    /// propagation-potential fitness signal.
    [[nodiscard]] std::size_t latched_effects() const;

    /// Opaque saved state of the whole session.
    struct Snapshot {
      std::vector<sim::PackedV3> ff_values;  // per group x per FF
      FaultSet detected;
      std::vector<std::uint32_t> group_remaining;
      // Frame-gated sessions only (empty / 0 under stuck-at):
      sim::Vector3 free_state;         // fault-free machine state
      std::vector<sim::V3> prev_site;  // per target: last site value
      std::size_t tdf_latched = 0;
    };

    [[nodiscard]] Snapshot snapshot() const;
    void restore(const Snapshot& snap);

   private:
    /// Advances a frame-gated session (see step()).
    std::size_t step_tdf(const sim::Vector3& pi);

    /// Marks group g's PO-detected slots `det` detected; returns how many
    /// were new.
    std::size_t credit(std::size_t g, std::uint64_t det);

    FaultSimulator* parent_;
    GroupWorker* worker_;  // the parent's serial engine
    std::vector<FaultClassId> targets_;
    std::size_t num_groups_ = 0;
    std::vector<sim::PackedV3> ff_values_;  // num_groups x num_ffs
    /// Per-group injection maps, built once at construction — step()
    /// re-installs simulation state per group every frame, but the
    /// injections never change for a fixed target set.  Unused (empty)
    /// under a frame-gated model, where injections depend on the frame.
    std::vector<sim::PackedInjectionMap> group_injections_;
    FaultSet detected_;
    /// Undetected faults left per group; fully-detected groups are
    /// skipped by step().
    std::vector<std::uint32_t> group_remaining_;
    // --- frame-gated (transition-delay) session state ------------------
    // Under a frame-gated model effects never persist, so the session
    // tracks only the fault-free machine state entering the next frame
    // (a scalar Vector3 — the free machine is slot-uniform): each step
    // launches active faults one-frame from it via load_state, which
    // applies FF-stem injections exactly like the batch passes.
    // prev_site_ holds the free value of each target's stem from the
    // previous frame (X before the first step: frame 0 never launches).
    bool tdf_ = false;
    sim::Vector3 free_state_;         // per FF, entering the next frame
    std::vector<sim::V3> prev_site_;  // per target
    std::size_t tdf_latched_ = 0;     // latched_effects() under TDF
  };

 private:
  /// The execution policy every query plan runs under.
  [[nodiscard]] ExecPolicy policy() const noexcept {
    return ExecPolicy{num_threads_};
  }

  /// The per-frame half of check_test (Session::step checks each
  /// frame with it): throws unless `pi` has primary_inputs() width.
  void check_pi(const sim::Vector3& pi) const;

  /// Targets to simulate: every class, or the members of `targets`,
  /// ordered by pack_rank_.  The order is a fixed total order (rank,
  /// then class id), identical for every query and every subset; it
  /// fixes each group's members and so every per-target result order.
  [[nodiscard]] std::vector<FaultClassId> collect(
      const FaultSet* targets) const;

  /// Scatters per-group detection masks into a per-class FaultSet, in
  /// group order.  With `complement`, classes whose bit is *clear* are
  /// set instead (mismatch mask -> consistent set).
  void reduce_masks(std::span<const FaultClassId> list,
                    std::span<const std::uint64_t> group_masks,
                    FaultSet& out, bool complement = false) const;

  /// The cached fault-free trace of (masked scan_in, seq), shared across
  /// groups, when the fault model is frame-gated (the trace is its
  /// activation oracle); nullptr under a frame-less model.
  [[nodiscard]] std::shared_ptr<const sim::NodeTrace> acquire_trace(
      const sim::Vector3* scan_in, const sim::Sequence& seq);

  /// Fault-free traces for a batch query: one per test under a
  /// frame-gated model (the batch passes' activation oracle), empty
  /// under stuck-at (no stuck-at pass reads a trace).  Acquired before
  /// the group fan-out — TraceCache is not thread-safe.
  [[nodiscard]] std::vector<std::shared_ptr<const sim::NodeTrace>>
  acquire_traces(std::span<const BatchTest> tests);

  /// True when a (sub)query should take the wide PPSFP path.
  [[nodiscard]] static bool use_batch(std::size_t num_tests,
                                      const sim::SimdConfig& cfg) noexcept {
    return num_tests > 1 && cfg.lanes() > 1;
  }

  /// Runs a detect-shaped plan on the wide fault-parallel path (lanes()
  /// groups per pass) when it applies — frame-less model, >= 2 groups,
  /// wide lanes — filling det (one mask per group) and
  /// returning true.  Returns false untouched when the per-group 64-bit
  /// plan should run instead.  With `all_ok` (detects_all) the plan
  /// stops early: a chunk that misses a fault or sees the cancel token
  /// clears it, and pending chunks and in-flight passes then stop.
  bool wide_fp_detect(const sim::Vector3* scan_in, const sim::Sequence& seq,
                      std::span<const FaultClassId> list,
                      bool observe_scan_out, std::atomic<bool>* all_ok,
                      std::span<std::uint64_t> det);

  const netlist::Circuit* circuit_;
  const FaultList* faults_;
  util::Bitset scan_mask_;
  std::size_t num_threads_ = 1;
  sim::LaneWidth lane_width_ = sim::LaneWidth::Auto;
  util::CancelToken cancel_;
  GroupExecutor exec_;
  sim::TraceCache trace_cache_;
  std::vector<std::uint32_t> pack_rank_;  ///< per class: packing rank
};

}  // namespace scanc::fault
