// PODEM combinational ATPG over the full-scan view of a circuit.
//
// The scan (combinational) view treats primary inputs and flip-flop Q
// outputs as assignable inputs, and primary outputs and flip-flop D
// capture lines as observation points.  A generated test is a cube over
// (state, inputs); applied as the scan test (SI, <t>) of length one it
// detects the target fault.
//
// Values are pairs (good, bad) of three-valued logic — the classic
// 5-valued D-calculus {0, 1, X, D, D'} plus the partially-specified
// combinations that arise naturally with X inputs.
//
// The search is standard PODEM: excite the fault, backtrace objectives to
// an input assignment, imply by forward simulation, track the D-frontier
// with an X-path check, and backtrack on conflicts.  A backtrack limit
// bounds the search; exhausting the search space without hitting the
// limit proves the fault combinationally untestable.
//
// Implication is event-driven (docs/atpg.md "PODEM implication"): a
// decision re-evaluates, level by level, only the gates whose fanins
// changed; every value change goes on a trail that backtracking
// restores; and the X-path check and the D-frontier scan walk only the
// fault site's transitive fanout.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/circuit.hpp"
#include "sim/sequence.hpp"
#include "util/bitset.hpp"

namespace scanc::atpg {

/// Outcome of one PODEM run.
enum class PodemStatus : std::uint8_t {
  Detected,    ///< test cube found
  Untestable,  ///< search space exhausted: no test exists (in the scan view)
  Aborted,     ///< backtrack limit hit; testability unresolved
};

/// A test cube over the scan view: values may contain X (unspecified).
struct TestCube {
  sim::Vector3 state;   ///< flip-flop scan-in part (flip_flops() order)
  sim::Vector3 inputs;  ///< primary-input part (primary_inputs() order)
};

/// PODEM result.
struct PodemResult {
  PodemStatus status = PodemStatus::Aborted;
  TestCube cube;          ///< valid iff status == Detected
  std::uint32_t backtracks = 0;
};

/// PODEM options.
struct PodemOptions {
  std::uint32_t backtrack_limit = 2000;
  /// Partial scan: which flip-flops (flip_flops() order) are scannable.
  /// Empty means full scan.  Unscanned flip-flops are neither assignable
  /// (their Q stays X) nor observable at their D line.
  util::Bitset scan_mask;
};

/// Combinational test generator for single stuck-at faults.
class Podem {
 public:
  explicit Podem(const netlist::Circuit& circuit,
                 PodemOptions options = {});

  /// Attempts to generate a test cube for `fault`.
  [[nodiscard]] PodemResult generate(const fault::Fault& fault);

 private:
  /// One trail entry: a node's packed value before a change.
  struct Change {
    netlist::NodeId node;
    std::uint8_t old;
  };
  struct Decision {
    netlist::NodeId input;
    bool value;
    bool flipped;
    std::size_t mark;  ///< trail size before the first assignment
  };

  // Scratch state lives in the class to avoid per-call allocation.
  const netlist::Circuit* circuit_;
  const netlist::CsrSchedule* csr_;
  PodemOptions options_;
  fault::Fault fault_{};  ///< target of the running generate()

  // Per-node (good, bad) pair packed into one byte: good's V3 in bits
  // 0-1, bad's in bits 2-3, so one AND or OR evaluates both machines.
  std::vector<std::uint8_t> val_;
  std::vector<sim::V3> assign_;       // per assignable input node id
  std::vector<netlist::NodeId> inputs_;  // PIs then scanned FF Q nodes
  std::vector<std::uint32_t> cc0_;    // SCOAP-like controllability to 0
  std::vector<std::uint32_t> cc1_;    // SCOAP-like controllability to 1
  std::vector<std::uint32_t> level_;  // Node::level (0 = source)
  std::vector<std::uint8_t> op_;      // per gate: evaluation code
  std::vector<char> assignable_;      // per node: PI or scanned FF
  std::vector<char> observable_ff_;   // per FF index: D line observed

  // Event queue: gates of level l wait in bucket_[level_offsets[l-1] +
  // 0 .. fill_[l]); `queued_` holds the epoch a gate was last queued in.
  std::vector<netlist::NodeId> bucket_;
  std::vector<std::uint32_t> fill_;
  std::vector<std::uint32_t> queued_;
  std::uint32_t epoch_ = 0;
  std::vector<Change> trail_;
  std::vector<Decision> decisions_;

  // The fault site's transitive-fanout gates in topo_order() order,
  // rebuilt by each generate(); `stamp_` marks cone membership and the
  // X-path reach under epochs of their own.
  std::vector<netlist::NodeId> cone_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t stamp_epoch_ = 0;
  std::vector<netlist::NodeId> frontier_;
  std::uint64_t gate_evals_ = 0;

  void compute_controllability();
  void next_stamp();
  void build_cone();
  void imply();
  void propagate(netlist::NodeId changed_input);
  void set_value(netlist::NodeId id, std::uint8_t v);
  void undo_to(std::size_t mark);
  [[nodiscard]] std::uint8_t eval(netlist::NodeId id) const;
  [[nodiscard]] bool effect_in(netlist::NodeId id) const;
  [[nodiscard]] bool fault_effect_observed() const;
  [[nodiscard]] bool x_path_exists();
  [[nodiscard]] std::optional<std::pair<netlist::NodeId, bool>> objective();
  [[nodiscard]] std::optional<std::pair<netlist::NodeId, bool>> backtrace(
      netlist::NodeId node, bool value) const;
};

}  // namespace scanc::atpg
